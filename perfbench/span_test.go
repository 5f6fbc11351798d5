package main

import (
	"slices"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []Span
		want  []int64
	}{
		{
			name:  "root alone",
			spans: []Span{{Parent: noParent, Start: 0, End: 10}},
			want:  []int64{10},
		},
		{
			// 0..100 holds 10..60, which holds 20..30 and 40..45.
			name: "nested",
			spans: []Span{
				{Parent: noParent, Start: 0, End: 100},
				{Parent: 0, Start: 10, End: 60},
				{Parent: 1, Start: 20, End: 30},
				{Parent: 1, Start: 40, End: 45},
			},
			want: []int64{50, 35, 10, 5},
		},
		{
			// Children that touch end to start are each subtracted once.
			name: "back to back",
			spans: []Span{
				{Parent: noParent, Start: 0, End: 30},
				{Parent: 0, Start: 0, End: 10},
				{Parent: 0, Start: 10, End: 20},
				{Parent: 0, Start: 20, End: 25},
			},
			want: []int64{5, 10, 10, 5},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := SelfTimes(tc.spans); !slices.Equal(got, tc.want) {
				t.Fatalf("SelfTimes = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestTracerNests(t *testing.T) {
	tr := NewTracer()
	outer, inner := tr.Name("outer"), tr.Name("inner")
	a := tr.Begin(outer)
	b := tr.Begin(inner)
	tr.End(b)
	c := tr.Begin(inner)
	tr.End(c)
	tr.End(a)
	d := tr.Begin(outer)
	tr.End(d)
	spans, names := tr.Snapshot()
	parents := []int32{spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent}
	if !slices.Equal(parents, []int32{noParent, 0, 0, noParent}) {
		t.Fatalf("parents = %v", parents)
	}
	agg := Aggregate(spans, names)
	if agg["inner"].Calls != 2 || agg["outer"].Calls != 2 {
		t.Fatalf("calls: inner %d outer %d", agg["inner"].Calls, agg["outer"].Calls)
	}
	if got, want := agg["outer"].SelfNs, agg["outer"].TotalNs-agg["inner"].TotalNs; got != want {
		t.Fatalf("outer self %d, want total minus children %d", got, want)
	}
}

func TestTracerRefusesCrossedSpans(t *testing.T) {
	tr := NewTracer()
	outer, inner := tr.Name("outer"), tr.Name("inner")
	a := tr.Begin(outer)
	tr.Begin(inner)
	defer func() {
		if recover() == nil {
			t.Error("ending an outer span while an inner one is open did not panic")
		}
	}()
	tr.End(a)
}
