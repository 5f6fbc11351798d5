package core

import (
	"testing"
	"testing/quick"

	"github.com/coda-repro/coda/internal/job"
)

func mustBudget(t *testing.T, cores, reserve int) *nodeBudget {
	t.Helper()
	b, err := newNodeBudget(cores, reserve)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewNodeBudgetValidation(t *testing.T) {
	if _, err := newNodeBudget(0, 0); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := newNodeBudget(8, 9); err == nil {
		t.Error("reserve > cores should fail")
	}
	if _, err := newNodeBudget(8, -1); err == nil {
		t.Error("negative reserve should fail")
	}
}

func TestChargeGPUPrefersReserve(t *testing.T) {
	b := mustBudget(t, 10, 6)
	if !b.chargeGPU(1, 4) {
		t.Fatal("chargeGPU failed")
	}
	if got := b.reserveUsed; got != 4 {
		t.Errorf("reserveUsed = %d, want 4", got)
	}
	if got := b.sharedUsed; got != 0 {
		t.Errorf("sharedUsed = %d, want 0", got)
	}
	// Next GPU job spills into the shared pool (reserve has 2 left).
	if !b.chargeGPU(2, 5) {
		t.Fatal("second chargeGPU failed")
	}
	if got := b.reserveUsed; got != 6 {
		t.Errorf("reserveUsed = %d, want 6", got)
	}
	if got := b.sharedUsed; got != 3 {
		t.Errorf("sharedUsed = %d, want 3", got)
	}
	// Pools exhausted beyond capacity.
	if b.chargeGPU(3, 2) {
		t.Error("chargeGPU should fail: only 1 shared core left")
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestChargeGPUDuplicate(t *testing.T) {
	b := mustBudget(t, 10, 5)
	if !b.chargeGPU(1, 2) {
		t.Fatal("chargeGPU failed")
	}
	if b.chargeGPU(1, 2) {
		t.Error("duplicate chargeGPU should fail")
	}
}

func TestChargeCPUBorrowing(t *testing.T) {
	b := mustBudget(t, 10, 6) // 4 shared
	if !b.chargeCPU(1, 3, false) {
		t.Fatal("chargeCPU failed")
	}
	// 1 shared core left; 5 more requires borrowing.
	if b.chargeCPU(2, 5, false) {
		t.Error("chargeCPU without borrow should fail")
	}
	if !b.chargeCPU(2, 5, true) {
		t.Fatal("chargeCPU with borrow failed")
	}
	if got := b.borrowed; got != 4 {
		t.Errorf("borrowed = %d, want 4", got)
	}
	borrowers := b.borrowers()
	if len(borrowers) != 1 || borrowers[0] != 2 {
		t.Errorf("borrowers = %v, want [2]", borrowers)
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBorrowersOrdering(t *testing.T) {
	b := mustBudget(t, 20, 15) // 5 shared
	// Job 1 borrows 2, job 2 borrows 4 (both spill past shared).
	if !b.chargeCPU(1, 5, true) { // 5 shared used... wait shared=5: all shared
		t.Fatal("charge 1")
	}
	if !b.chargeCPU(2, 4, true) { // all borrowed
		t.Fatal("charge 2")
	}
	if !b.chargeCPU(3, 2, true) {
		t.Fatal("charge 3")
	}
	order := b.borrowers()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Errorf("borrowers = %v, want [2 3] (largest borrow first)", order)
	}
}

func TestRelease(t *testing.T) {
	b := mustBudget(t, 10, 5)
	if !b.chargeGPU(1, 4) || !b.chargeCPU(2, 3, false) {
		t.Fatal("setup failed")
	}
	b.release(1)
	b.release(2)
	if b.reserveUsed != 0 || b.sharedUsed != 0 {
		t.Errorf("pools not empty: reserve=%d shared=%d", b.reserveUsed, b.sharedUsed)
	}
	b.release(99) // releasing unknown is a no-op
}

func TestResizeGPUJob(t *testing.T) {
	b := mustBudget(t, 10, 5)
	if !b.chargeGPU(1, 3) {
		t.Fatal("charge failed")
	}
	// Grow to 7: reserve has 2 free, shared covers 2 more.
	if !b.resize(1, 7) {
		t.Fatal("resize grow failed")
	}
	if b.reserveUsed != 5 || b.sharedUsed != 2 {
		t.Errorf("pools = reserve %d shared %d, want 5, 2", b.reserveUsed, b.sharedUsed)
	}
	// Shrink to 4: shared cores returned first.
	if !b.resize(1, 4) {
		t.Fatal("resize shrink failed")
	}
	if b.reserveUsed != 4 || b.sharedUsed != 0 {
		t.Errorf("pools = reserve %d shared %d, want 4, 0", b.reserveUsed, b.sharedUsed)
	}
	// Impossible growth.
	if b.resize(1, 11) {
		t.Error("resize beyond node should fail")
	}
	if b.resize(1, 0) {
		t.Error("resize to zero should fail")
	}
	if b.resize(42, 3) {
		t.Error("resize of unknown job should fail")
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestResizeCPUJobReturnsReserveFirst(t *testing.T) {
	b := mustBudget(t, 10, 6) // 4 shared
	if !b.chargeCPU(1, 7, true) {
		t.Fatal("charge failed") // 4 shared + 3 borrowed
	}
	if !b.resize(1, 4) {
		t.Fatal("shrink failed")
	}
	// The 3 borrowed reserve cores must be returned before shared ones.
	if got := b.borrowed; got != 0 {
		t.Errorf("borrowed = %d, want 0", got)
	}
	if b.sharedUsed != 4 {
		t.Errorf("sharedUsed = %d, want 4", b.sharedUsed)
	}
}

func TestResizeNoChange(t *testing.T) {
	b := mustBudget(t, 10, 5)
	if !b.chargeGPU(1, 3) {
		t.Fatal("charge failed")
	}
	if !b.resize(1, 3) {
		t.Error("no-op resize should succeed")
	}
}

// TestBudgetConservationProperty: for any interleaving of charges, grow
// and shrink resizes (refused growth included) and releases, used never
// exceeds capacity, the invariants hold — checkInvariants recounts the
// running pool sums from the draw maps — and a refused resize leaves the
// job's draw and the sums untouched.
func TestBudgetConservationProperty(t *testing.T) {
	borrowingCharges := 0 // CPU charges across all cases that drew on the reserve
	f := func(ops []uint8) bool {
		b, err := newNodeBudget(16, 8)
		if err != nil {
			return false
		}
		var live []job.ID
		next := job.ID(1)
		for i, op := range ops {
			cores := int(op%6) + 1
			switch op % 4 {
			case 0:
				if b.chargeGPU(next, cores) {
					live = append(live, next)
					next++
				}
			case 1:
				// The borrow flag comes from a bit the op%4 switch leaves free.
				if b.chargeCPU(next, cores, (op>>2)%2 == 0) {
					if b.cpuDraws[next].fromReserve > 0 {
						borrowingCharges++
					}
					live = append(live, next)
					next++
				}
			case 2:
				if len(live) == 0 {
					break
				}
				id := live[i%len(live)]
				// Grow by up to 10 cores (often more than the pools hold) or
				// shrink, never below one core.
				newCores := int(op/4)%11 + 1
				beforeG, beforeC := b.gpuDraws[id], b.cpuDraws[id]
				reserveUsed, sharedUsed, borrowed := b.reserveUsed, b.sharedUsed, b.borrowed
				if !b.resize(id, newCores) {
					if b.gpuDraws[id] != beforeG || b.cpuDraws[id] != beforeC ||
						b.reserveUsed != reserveUsed || b.sharedUsed != sharedUsed || b.borrowed != borrowed {
						return false
					}
				} else if b.gpuDraws[id].total()+b.cpuDraws[id].total() != newCores {
					return false
				}
			case 3:
				if len(live) == 0 {
					break
				}
				k := i % len(live)
				b.release(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if b.checkInvariants() != nil {
				return false
			}
			if b.reserveUsed+b.sharedUsed > 16 {
				return false
			}
		}
		for _, id := range live {
			b.release(id)
		}
		return b.checkInvariants() == nil && b.reserveUsed == 0 && b.sharedUsed == 0 && b.borrowed == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if borrowingCharges == 0 {
		t.Error("no CPU charge borrowed reserve cores; the borrowed sum went unexercised")
	}
}

// TestBudgetSumsDriftDetected: checkInvariants catches running sums that
// disagree with the draw maps.
func TestBudgetSumsDriftDetected(t *testing.T) {
	b := mustBudget(t, 16, 8)
	if !b.chargeCPU(1, 10, true) {
		t.Fatal("charge failed")
	}
	b.borrowed--
	if err := b.checkInvariants(); err == nil {
		t.Error("checkInvariants accepted a borrowed sum one below the draws")
	}
}
