package xquery

import (
	"time"

	"mhxquery/internal/dom"
)

// This file defines the pull-based execution primitives of the cursor
// engine: the cursor interface every physical operator streams items
// through, adapters between cursors and materialized sequences, and the
// drain helpers the evaluation entry points use. The design rule is that
// a cursor owns no resources — abandoning one (an early-exit consumer
// stopping after its first item) needs no Close, which is what makes
// streaming with limits safe to expose over HTTP.

// cursor is a pull-based item stream. next returns the next item and
// true, or (nil, false, nil) when the stream is exhausted. After an
// error or exhaustion the cursor must keep returning (nil, false, err).
type cursor interface {
	next() (Item, bool, error)
}

// emptyCur is the shared empty cursor.
var emptyCur cursor = seqCur(nil)

// seqCursor streams a materialized sequence.
type seqCursor struct {
	s Seq
	i int
}

func (sc *seqCursor) next() (Item, bool, error) {
	if sc.i >= len(sc.s) {
		return nil, false, nil
	}
	it := sc.s[sc.i]
	sc.i++
	return it, true, nil
}

// seqCur wraps a sequence as a cursor.
func seqCur(s Seq) cursor { return &seqCursor{s: s} }

// errCursor yields one error and nothing else.
type errCursor struct{ err error }

func (ec *errCursor) next() (Item, bool, error) { return nil, false, ec.err }

func errCur(err error) cursor { return &errCursor{err: err} }

// drain materializes a cursor. Cancellation is checked here so every
// strict consumer of a streaming operator honors the evaluation
// deadline.
func drain(c *context, cur cursor) (Seq, error) {
	// Fast path: a sequence-backed cursor materializes by slicing.
	if sc, ok := cur.(*seqCursor); ok {
		s := sc.s[sc.i:]
		sc.i = len(sc.s)
		return s, nil
	}
	var out Seq
	for {
		if err := c.st.checkCancel(); err != nil {
			return nil, err
		}
		it, ok, err := cur.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, it)
	}
}

// drainBool computes the effective boolean value of a cursor, pulling
// at most two items (the ebv rules need no more: an empty stream is
// false, a stream whose first item is a node is true, and a second item
// after a non-node first is the FORG0006 error). An error the producer
// would only raise beyond the pulled prefix is not raised — XQuery's
// errors-and-optimization rules expressly permit not evaluating the
// unneeded remainder of an operand.
func drainBool(cur cursor) (bool, error) {
	first, ok, err := cur.next()
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	if _, isNode := first.(*dom.Node); isNode {
		return true, nil
	}
	if _, more, err := cur.next(); err != nil {
		return false, err
	} else if more {
		return false, errf("FORG0006", "effective boolean value of a sequence of 2 or more atomic values")
	}
	return ebv(Seq{first})
}

// countingCursor counts items through an explain slot: out_rows grows
// per emitted item, so a partially drained (limit-stopped) evaluation
// records exactly how many items each operator produced. Under EXPLAIN
// ANALYZE (st.timed) each pull is also timed; the recorded time is
// inclusive of upstream work, since pulling this cursor pulls its
// producers.
type countingCursor struct {
	inner cursor
	st    *evalState
	id    int
}

func (cc *countingCursor) next() (Item, bool, error) {
	if cc.st.timed {
		start := time.Now()
		it, ok, err := cc.inner.next()
		cc.st.explain[cc.id].nanos += int64(time.Since(start))
		if ok {
			cc.st.explain[cc.id].out++
		}
		return it, ok, err
	}
	it, ok, err := cc.inner.next()
	if ok && cc.st.explain != nil {
		cc.st.explain[cc.id].out++
	}
	return it, ok, err
}

// counted wraps cur with explain accounting when instrumentation is
// active; calls is bumped once per open.
func counted(st *evalState, id int, cur cursor) cursor {
	if st.explain == nil || id < 0 {
		return cur
	}
	st.explain[id].calls++
	return &countingCursor{inner: cur, st: st, id: id}
}

// concatCursor streams the concatenation of lazily opened sub-cursors.
type concatCursor struct {
	open func(i int) (cursor, bool) // i-th sub-cursor, ok=false when done
	cur  cursor
	i    int
}

func (cc *concatCursor) next() (Item, bool, error) {
	for {
		if cc.cur == nil {
			sub, ok := cc.open(cc.i)
			if !ok {
				return nil, false, nil
			}
			cc.i++
			cc.cur = sub
		}
		it, ok, err := cc.cur.next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return it, true, nil
		}
		cc.cur = nil
	}
}
