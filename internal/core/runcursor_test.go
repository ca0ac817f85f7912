package core

import (
	"testing"

	"mhxquery/internal/dom"
)

// TestRunCursorMatchesAppend checks that lazy iteration over the name
// runs yields exactly the nodes (and order) of materialized run
// appends, and that Len/At agree with the stream.
func TestRunCursorMatchesAppend(t *testing.T) {
	d := nameIndexDoc(t)
	for _, name := range []string{"pg", "w"} {
		sym := d.NameSymOf(name)
		if sym == 0 {
			t.Fatalf("name %q not interned", name)
		}
		var rc RunCursor
		var want []*dom.Node
		for _, h := range d.Hiers {
			run := h.NameRun(sym)
			rc.Add(h, run)
			for _, ord := range run {
				want = append(want, h.Nodes[ord])
			}
		}
		if rc.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", name, rc.Len(), len(want))
		}
		for i, w := range want {
			if got := rc.At(i); got != w {
				t.Fatalf("%s: At(%d) = %v, want %v", name, i, got, w)
			}
		}
		var got []*dom.Node
		for {
			n, ok := rc.Next()
			if !ok {
				break
			}
			got = append(got, n)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: streamed %d nodes, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: node %d differs", name, i)
			}
		}
		// Streamed output must be ascending document order.
		for i := 1; i < len(got); i++ {
			if dom.Compare(got[i-1], got[i]) >= 0 {
				t.Fatalf("%s: not ascending at %d", name, i)
			}
		}
	}
}

// TestRunCursorSubtreeRestriction checks lazy iteration over
// subtree-restricted runs (the index-scan segment shape).
func TestRunCursorSubtreeRestriction(t *testing.T) {
	d := nameIndexDoc(t)
	sym := d.NameSymOf("w")
	var h *Hierarchy
	for _, cand := range d.Hiers {
		if cand.Name == "str" {
			h = cand
		}
	}
	if h == nil {
		t.Fatal("no str hierarchy")
	}
	run := h.NameRun(sym)
	if len(run) != 3 {
		t.Fatalf("w run = %d entries, want 3", len(run))
	}
	// Restrict to the subtree of the second w: exactly itself.
	w2 := h.Nodes[run[1]]
	var rc RunCursor
	rc.Add(h, SubRun(run, w2.Ord-1, w2.Last))
	if rc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", rc.Len())
	}
	n, ok := rc.Next()
	if !ok || n != w2 {
		t.Fatalf("restricted run yielded %v", n)
	}
}

// TestRunCursorSplit checks the morsel splitter: concatenating the
// morsels' streams must reproduce the unsplit stream exactly, every
// morsel but the last must hold exactly size candidates, and the
// morsels must alias (not copy) the underlying runs.
func TestRunCursorSplit(t *testing.T) {
	d := nameIndexDoc(t)
	for _, name := range []string{"pg", "w"} {
		sym := d.NameSymOf(name)
		var rc RunCursor
		var want []*dom.Node
		for _, h := range d.Hiers {
			run := h.NameRun(sym)
			rc.Add(h, run)
			for _, ord := range run {
				want = append(want, h.Nodes[ord])
			}
		}
		for _, size := range []int{1, 2, 3, 100} {
			morsels := rc.Split(size)
			var got []*dom.Node
			for mi := range morsels {
				m := &morsels[mi]
				if mi < len(morsels)-1 && m.Len() != size {
					t.Fatalf("%s size=%d: morsel %d has %d candidates", name, size, mi, m.Len())
				}
				if m.Len() > size {
					t.Fatalf("%s size=%d: morsel %d exceeds size (%d)", name, size, mi, m.Len())
				}
				for {
					n, ok := m.Next()
					if !ok {
						break
					}
					got = append(got, n)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s size=%d: split streamed %d nodes, want %d", name, size, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s size=%d: node %d differs from unsplit stream", name, size, i)
				}
			}
		}
		if rc.Split(0) != nil && rc.Split(0)[0].Len() != rc.Len() {
			t.Fatalf("%s: size<1 must yield one full morsel", name)
		}
	}
	var empty RunCursor
	if got := empty.Split(4); got != nil {
		t.Fatalf("empty cursor split = %v, want nil", got)
	}
}

// TestRunCursorEmpty checks the zero value and empty-run handling.
func TestRunCursorEmpty(t *testing.T) {
	var rc RunCursor
	if rc.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	if _, ok := rc.Next(); ok {
		t.Fatal("zero value yielded a node")
	}
	rc.Add(&Hierarchy{}, nil) // empty runs are dropped
	if rc.Len() != 0 {
		t.Fatal("empty run counted")
	}
}

// TestRunCursorNextRunReset checks the bulk form: after a partial
// Next, NextRun yields exactly the remaining candidates in order, and a
// Reset cursor refilled with the same runs starts over.
func TestRunCursorNextRunReset(t *testing.T) {
	d := nameIndexDoc(t)
	sym := d.NameSymOf("w")
	var rc RunCursor
	var want []*dom.Node
	for round := 0; round < 2; round++ {
		rc.Reset()
		want = want[:0]
		for _, h := range d.Hiers {
			rc.Add(h, h.NameRun(sym))
			for _, ord := range h.NameRun(sym) {
				want = append(want, h.Nodes[ord])
			}
		}
		if len(want) < 2 {
			t.Fatalf("fixture has %d w elements, want at least 2", len(want))
		}
		first, ok := rc.Next()
		if !ok || first != want[0] {
			t.Fatalf("round %d: Next = %v, want %v", round, first, want[0])
		}
		got := []*dom.Node{first}
		for h, run, ok := rc.NextRun(); ok; h, run, ok = rc.NextRun() {
			for _, ord := range run {
				got = append(got, h.Nodes[ord])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: got %d nodes, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: node %d differs", round, i)
			}
		}
		if _, ok := rc.Next(); ok {
			t.Fatalf("round %d: cursor not exhausted after NextRun", round)
		}
	}
}
