// Package ssafix exercises the IR builder: declared functions and
// methods, a return-embedded call, loops with defers, a closure, and a
// rebound local for the def-use chains.
package ssafix

import "errors"

// Root returns through a call embedded in the return statement; the
// builder must still emit a Call instruction for helper.
//
//vet:hotpath -- marker carried through to Function.Doc
func Root(xs []int) (int, error) {
	if len(xs) == 0 {
		return 0, errors.New("empty")
	}
	return helper(xs), nil
}

// helper sums, with a branch and a loop to give the CFG shape.
func helper(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// counter is a receiver for the method-name test.
type counter struct{ n int }

func (c *counter) bump() { c.n++ }

// loops defers inside a loop body (LoopDepth > 0) and creates a
// closure the builder must attach to Lits.
func loops(c *counter, xs []int) func() {
	for range xs {
		defer c.bump()
	}
	f := func() { c.bump() }
	return f
}

// rebind defines c twice; DefsOf must see both assignments.
func rebind() *counter {
	c := &counter{}
	c = &counter{n: 1}
	c.bump()
	return c
}
