// Package fixunfix is the analyzer fixture: local stubs mimic the
// storage pool's Pager/Frame shapes (the analyzer matches by type
// name), and each seeded violation carries a want comment.
package fixunfix

// Frame stubs the pool frame.
type Frame struct{}

// ID stubs the page id accessor.
func (f *Frame) ID() int { return 0 }

// Data stubs the page accessor.
func (f *Frame) Data() []byte { return nil }

// Pager stubs the buffer pool.
type Pager struct{}

// Fix stubs the pin-acquiring fix.
func (p *Pager) Fix(id int) (*Frame, error) { return nil, nil }

// Allocate stubs page allocation (also pins).
func (p *Pager) Allocate(kind int) (*Frame, error) { return nil, nil }

// Unfix stubs the release.
func (p *Pager) Unfix(f *Frame) {}

// leakTotal pins a frame and never releases it anywhere: the totality
// check fires on the fix itself.
func leakTotal(p *Pager) {
	f, err := p.Fix(1) // want `frame f pinned by Pager\.Fix is never Unfixed and never escapes`
	if err != nil {
		return
	}
	_ = f.Data()
}

// leakReturn releases on the happy path but returns early without a
// release: the path check fires on the return.
func leakReturn(p *Pager, cond bool) error {
	f, err := p.Fix(2)
	if err != nil {
		return err
	}
	if cond {
		return nil // want `return leaks frame f pinned by Pager\.Fix`
	}
	p.Unfix(f)
	return nil
}

// leakAllocateLoop pins inside a loop with no release: loops get the
// totality check.
func leakAllocateLoop(p *Pager) {
	for i := 0; i < 3; i++ {
		f, err := p.Allocate(i) // want `frame f pinned by Pager\.Allocate is never Unfixed and never escapes`
		if err != nil {
			return
		}
		_ = f.Data()
	}
}

// cleanDefer is the canonical correct shape: deferred release right
// after the error guard.
func cleanDefer(p *Pager) error {
	f, err := p.Fix(3)
	if err != nil {
		return err
	}
	defer p.Unfix(f)
	_ = f.Data()
	return nil
}

// cleanBranches releases on both arms of a guarded early return.
func cleanBranches(p *Pager, cond bool) error {
	f, err := p.Fix(4)
	if err != nil {
		return err
	}
	if cond {
		p.Unfix(f)
		return nil
	}
	p.Unfix(f)
	return nil
}

// cleanEscape hands the pin to the caller: returning the frame
// transfers the release obligation.
func cleanEscape(p *Pager) (*Frame, error) {
	f, err := p.Fix(5)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// cleanSuppressed leaks deliberately under an audited annotation; the
// suppression keeps the diagnostic out (no want comment here).
func cleanSuppressed(p *Pager) {
	f, _ := p.Fix(6) //vet:allow(fixunfix) -- fixture: audited deliberate leak
	_ = f.Data()
}

// --- v2 interprocedural cases ---

// releaseVia is a release helper: its summary says param 0 reaches
// Unfix, so callers handing it a frame are discharged.
func releaseVia(p *Pager, f *Frame) {
	p.Unfix(f)
}

// releaseDeeper chains through releaseVia; the fixed point propagates
// the releases bit two hops.
func releaseDeeper(p *Pager, f *Frame) {
	releaseVia(p, f)
}

// inspect is a neutral helper: it neither releases nor stores.
func inspect(f *Frame) int {
	return f.ID()
}

// cache stubs a structure that takes custody.
type cache struct {
	frames []*Frame
}

// keep stores the frame: custody transfers to the cache.
func (c *cache) keep(f *Frame) {
	c.frames = append(c.frames, f)
}

// fixRoot wraps Fix; its summary says result 0 is pinned, so callers
// inherit the obligation.
func fixRoot(p *Pager) (*Frame, error) {
	return p.Fix(10)
}

// cleanHelperRelease discharges through the release helper chain.
func cleanHelperRelease(p *Pager) error {
	f, err := p.Fix(11)
	if err != nil {
		return err
	}
	releaseDeeper(p, f)
	return nil
}

// cleanCustody hands the frame to a storing helper.
func cleanCustody(p *Pager, c *cache) error {
	f, err := p.Fix(12)
	if err != nil {
		return err
	}
	c.keep(f)
	return nil
}

// leakNeutralHelper passes the frame only to a neutral helper: v1
// treated the bare pass as an escape and stayed quiet; v2 knows
// inspect neither releases nor stores, so the pin still leaks.
func leakNeutralHelper(p *Pager) {
	f, err := p.Fix(13) // want `frame f pinned by Pager\.Fix is never Unfixed and never escapes`
	if err != nil {
		return
	}
	_ = inspect(f)
}

// leakFromWrapper pins through the helper wrapper and never releases:
// the obligation follows fixRoot's pinned summary to this caller.
func leakFromWrapper(p *Pager) {
	f, err := fixRoot(p) // want `frame f pinned by fixRoot is never Unfixed and never escapes`
	if err != nil {
		return
	}
	_ = f.Data()
}

// leakWrapperReturn releases on the happy path but leaks on the early
// return, with the pin coming from the wrapper.
func leakWrapperReturn(p *Pager, cond bool) error {
	f, err := fixRoot(p)
	if err != nil {
		return err
	}
	if cond {
		return nil // want `return leaks frame f pinned by fixRoot`
	}
	p.Unfix(f)
	return nil
}

// cleanWrapperHelper combines both summaries: pinned by a wrapper,
// released through a helper.
func cleanWrapperHelper(p *Pager) error {
	f, err := fixRoot(p)
	if err != nil {
		return err
	}
	defer releaseVia(p, f)
	_ = f.Data()
	return nil
}

// fixKept stores the frame in a ledger and returns it: the ledger, not
// the caller, owes the release.
func (c *cache) fixKept(p *Pager) (*Frame, error) {
	f, err := p.Fix(20)
	if err == nil {
		c.keep(f)
	}
	return f, err
}

// cleanBorrowed only reads a frame the ledger holds.
func cleanBorrowed(p *Pager, c *cache) {
	if f, err := c.fixKept(p); err == nil {
		_ = f.Data()
	}
}

// fixChecked releases on one path and hands the pin up on the other:
// the release does not make the returned frame a borrowed one.
func fixChecked(p *Pager, bad bool) (*Frame, error) {
	f, err := p.Fix(21)
	if err == nil && bad {
		p.Unfix(f)
		return nil, err
	}
	return f, err
}

// leakChecked leaks the frame fixChecked handed up.
func leakChecked(p *Pager) {
	f, _ := fixChecked(p, false) // want `frame f pinned by fixChecked is never Unfixed and never escapes`
	_ = f.Data()
}
