package ftl

import (
	"errors"
	"fmt"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
)

// alwaysFail builds an injector whose selected fault kind fires with
// probability 1 (huge base x rate saturates the clamp, so no RNG draw is
// ever made); the other kinds are suppressed with denormal-small bases
// (zero would select the package defaults).
func alwaysFail(t *testing.T, program, erase bool) *faults.Injector {
	t.Helper()
	const off = 1e-300
	cfg := &faults.Config{Seed: 1, Rate: 1, ProgramFailBase: off, EraseFailBase: off, ReadFailScale: off}
	if program {
		cfg.ProgramFailBase = 1e18
	}
	if erase {
		cfg.EraseFailBase = 1e18
	}
	in, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Every program failing burns a page, retires the block, and moves on to
// the next — until the plane has no blocks left and the write reports
// ErrNoSpace instead of panicking or looping forever.
func TestAllProgramsFailingExhaustsPool(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(alwaysFail(t, true, false))
	_, _, werr := f.Write(0, 0, []int64{1})
	if werr == nil {
		t.Fatal("write succeeded with every program failing")
	}
	if !errors.Is(werr, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", werr)
	}
	s := f.Stats()
	if s.ProgramFaults == 0 || s.RetiredBlocks == 0 {
		t.Fatalf("no faults accounted: %+v", s)
	}
	if w := f.Wear(0); w.Retired != int(s.RetiredBlocks) {
		t.Fatalf("wear summary retired %d != stats %d", w.Retired, s.RetiredBlocks)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Nothing was ever stored, so nothing may be mapped.
	if _, ok := f.Lookup(1); ok {
		t.Fatal("failed write left a mapping behind")
	}
}

// Every erase failing retires each GC victim in turn: the free pool only
// shrinks, and sustained overwrites must end in a graceful ErrNoSpace with
// the FTL still self-consistent — this covers the last free block of a
// plane retiring mid-GC.
func TestAllErasesFailingShrinksPoolToNothing(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(alwaysFail(t, false, true))
	var werr error
	for i := 0; i < 2000; i++ {
		if _, _, werr = f.Write(0, 0, []int64{int64(i % 3)}); werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("overwrites never ran out of space with every erase failing")
	}
	if !errors.Is(werr, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", werr)
	}
	s := f.Stats()
	if s.EraseFaults == 0 || s.RetiredBlocks == 0 {
		t.Fatalf("no erase faults accounted: %+v", s)
	}
	if s.GC.Erases != 0 {
		t.Fatalf("failed erases counted as completed: %+v", s.GC)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Static wear leveling's erase path must survive erase failures too.
func TestStaticLevelingSurvivesEraseFaults(t *testing.T) {
	cfg := smallConfig()
	cfg.Wear = WearStatic
	cfg.StaticDelta = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(alwaysFail(t, false, true))
	var werr error
	for i := 0; i < 2000; i++ {
		if _, _, werr = f.Write(0, 0, []int64{int64(i % 3)}); werr != nil {
			break
		}
	}
	if !errors.Is(werr, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", werr)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Retired-block state must survive a snapshot round trip: the retired
// flags ride in the block dumps and the per-pool retired counters are
// recomputed on restore (pre-fault snapshots decode with zero retired).
func TestSnapshotRoundTripsRetiredBlocks(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fault every ~30th program so the pool survives long enough to hold
	// live data alongside a few grown-bad blocks.
	in, err := faults.New(&faults.Config{
		Seed: 3, Rate: 1, ProgramFailBase: 0.03, EraseFailBase: 1e-300, ReadFailScale: 1e-300,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(in)
	for i := 0; i < 300; i++ {
		if _, _, err := f.Write(i%2, 0, []int64{int64(i % 5)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if f.Stats().RetiredBlocks == 0 {
		t.Skip("no block retired at this seed; raise the fault base")
	}
	back, err := restoreBytes(f.cfg, f.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if f.Stats() != back.Stats() {
		t.Fatalf("stats differ after restore:\n  %+v\n  %+v", f.Stats(), back.Stats())
	}
	for plane := 0; plane < 2; plane++ {
		a, b := f.Wear(0), back.Wear(0)
		if a != b {
			t.Fatalf("plane %d wear summary differs: %+v vs %+v", plane, a, b)
		}
	}
	for lpn := int64(0); lpn < 5; lpn++ {
		a, okA := f.Lookup(lpn)
		b, okB := back.Lookup(lpn)
		if okA != okB || a != b {
			t.Fatalf("lpn %d mapping differs after restore", lpn)
		}
	}
	// The restored FTL has no injector: it keeps working fault-free.
	if _, _, err := back.Write(0, 0, []int64{99}); err != nil {
		t.Fatal(err)
	}
}

// RetireBlockAt (the read-scrub entry point) retires the addressed block,
// relocating its live data, and is idempotent on already-retired blocks.
func TestRetireBlockAtRelocatesAndIsIdempotent(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	loc, _, err := f.Write(0, 0, []int64{42})
	if err != nil {
		t.Fatal(err)
	}
	w, err := f.RetireBlockAt(loc)
	if err != nil {
		t.Fatal(err)
	}
	if w.Retired != 1 || w.PageMoves == 0 {
		t.Fatalf("retire work %+v, want 1 retirement with relocation", w)
	}
	newLoc, ok := f.Lookup(42)
	if !ok || newLoc == loc {
		t.Fatalf("live data not relocated: %+v ok=%v", newLoc, ok)
	}
	again, err := f.RetireBlockAt(loc)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Zero() {
		t.Fatalf("second retirement did work: %+v", again)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Identical fault seeds must produce bit-identical FTL outcomes for an
// identical write sequence — the FTL-level leg of the replay determinism
// guarantee.
func TestFaultSequenceDeterministicAtFTLLevel(t *testing.T) {
	run := func() (Stats, faults.Counts, error) {
		f, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		in, err := faults.New(&faults.Config{Seed: 11, Rate: 1, ProgramFailBase: 0.02, EraseFailBase: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		f.SetFaults(in)
		var lastErr error
		for i := 0; i < 1500; i++ {
			if _, _, lastErr = f.Write(i%2, 0, []int64{int64(i % 4)}); lastErr != nil {
				break
			}
		}
		return f.Stats(), in.Counts(), lastErr
	}
	s1, c1, e1 := run()
	s2, c2, e2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatalf("diverged:\n  %+v %+v\n  %+v %+v", s1, c1, s2, c2)
	}
	if (e1 == nil) != (e2 == nil) || (e1 != nil && e1.Error() != e2.Error()) {
		t.Fatalf("errors diverged: %v vs %v", e1, e2)
	}
}

// The typed flash sentinels surface through the wrap chain where the fault
// originated the failure.
func TestProgramFaultErrorCarriesSentinel(t *testing.T) {
	cfg := smallConfig()
	cfg.Pools[0].BlocksPerPlane = 3
	cfg.GCFreeBlocks = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(alwaysFail(t, true, false))
	_, _, werr := f.Write(0, 0, []int64{1})
	if werr == nil {
		t.Fatal("want failure")
	}
	if !errors.Is(werr, ErrNoSpace) {
		t.Fatalf("missing ErrNoSpace: %v", werr)
	}
	_ = flash.ErrProgramFail // sentinel only appears when retirement itself fails
}

// A relocation that runs out of space partway keeps the survivors it
// already moved mapped to their new pages and unmaps the rest: no forward
// entry may still name the emptied victim. The read-scrub path retires
// without a headroom check, so a plane with two free pages left strands
// half of a four-sector victim.
func TestFailedRelocationUnmapsOnlyTheRemainder(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Seven full blocks and half of the eighth: two pages free in plane 0.
	var victim Loc
	for lpn := int64(0); lpn < 30; lpn++ {
		loc, _, err := f.Write(0, 0, []int64{lpn})
		if err != nil {
			t.Fatal(err)
		}
		if lpn == 0 {
			victim = loc
		}
	}
	if _, err := f.RetireBlockAt(victim); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 4; lpn++ { // the victim's sectors, in page order
		loc, ok := f.Lookup(lpn)
		if moved := lpn < 2; ok != moved || ok && loc.Block == victim.Block {
			t.Errorf("LPN %d: mapped=%v at %+v, want mapped=%v off the victim", lpn, ok, loc, moved)
		}
	}
	if got := f.fwd.n; got != 28 {
		t.Errorf("forward map counts %d LPNs, want 28", got)
	}
}

// The same holds when the relocation re-enters itself: program faults at
// about 60% retire destination after destination, each one relocating the
// survivors already moved into it, until the plane runs out.
func TestFailedReentrantRelocationStaysConsistent(t *testing.T) {
	const off = 1e-300
	for seed := uint64(1); seed <= 32; seed++ {
		f, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		var victim Loc
		for lpn := int64(0); lpn < 8; lpn++ {
			loc, _, err := f.Write(0, 0, []int64{lpn})
			if err != nil {
				t.Fatal(err)
			}
			if lpn == 0 {
				victim = loc
			}
		}
		in, err := faults.New(&faults.Config{Seed: seed, Rate: 1, ProgramFailBase: 0.6, EraseFailBase: off, ReadFailScale: off})
		if err != nil {
			t.Fatal(err)
		}
		f.SetFaults(in)
		if _, err := f.RetireBlockAt(victim); err != nil && !errors.Is(err, ErrNoSpace) {
			t.Fatalf("seed %d: want nil or ErrNoSpace, got %v", seed, err)
		}
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for lpn := int64(0); lpn < 4; lpn++ {
			if loc, ok := f.Lookup(lpn); ok && loc.Block == victim.Block {
				t.Fatalf("seed %d: LPN %d still mapped to the emptied victim", seed, lpn)
			}
		}
	}
}

// TestFaultPathErrorText holds the lazily formatted fault-path errors to
// the fmt.Errorf text they replace, byte for byte, and to the sentinels
// callers match: ErrNoSpace underneath, and the flash fault that led to
// the error.
func TestFaultPathErrorText(t *testing.T) {
	noSpace := &noSpaceError{plane: 3, pool: 1}
	stranded := &strandedError{sectors: 12, err: noSpace}
	retire := &retireError{plane: 3, pool: 1, block: 77, err: stranded}
	afterProgram := &afterFaultError{retire, flash.ErrProgramFail}
	afterErase := &afterFaultError{retire, flash.ErrEraseFail}

	oldStranded := fmt.Errorf("ftl: GC relocation stranded %d sectors: %w", 12, noSpace)
	oldRetire := fmt.Errorf("ftl: retiring plane %d pool %d block %d: %w", int32(3), int32(1), int32(77), oldStranded)
	for _, c := range []struct {
		name string
		got  error
		want error
		is   []error
	}{
		{"stranded", stranded, oldStranded, []error{ErrNoSpace}},
		{"retire", retire, oldRetire, []error{ErrNoSpace}},
		{"after program fault", afterProgram, fmt.Errorf("%w (after %w)", oldRetire, flash.ErrProgramFail),
			[]error{ErrNoSpace, flash.ErrProgramFail}},
		{"after erase fault", afterErase, fmt.Errorf("%w (after %w)", oldRetire, flash.ErrEraseFail),
			[]error{ErrNoSpace, flash.ErrEraseFail}},
	} {
		if got, want := c.got.Error(), c.want.Error(); got != want {
			t.Errorf("%s: text %q, want %q", c.name, got, want)
		}
		for _, target := range c.is {
			if !errors.Is(c.got, target) {
				t.Errorf("%s: errors.Is(%v) = false", c.name, target)
			}
		}
	}
	if errors.Is(afterProgram, flash.ErrEraseFail) || errors.Is(afterErase, flash.ErrProgramFail) {
		t.Error("a fault-path error matches the other flash fault")
	}
}
