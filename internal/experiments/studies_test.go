package experiments

import (
	"context"
	"errors"
	"slices"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/storage"
)

// The list's invariants: unique names, composites made of leaves in list
// order (so a composite's Run and the CLI's Select print the same
// sequence), a trace axis only on casestudy, and the default covering
// every leaf except the five-seed ensemble and the single-figure views of
// the case study.
func TestStudyListShape(t *testing.T) {
	index := map[string]int{}
	for i, s := range studies {
		if _, dup := index[s.Name]; dup {
			t.Fatalf("study %q listed twice", s.Name)
		}
		index[s.Name] = i
		if (s.run == nil) == (len(s.Parts) == 0) {
			t.Errorf("study %q must be exactly one of a leaf or a composite", s.Name)
		}
		if s.Traces != nil && s.Name != "casestudy" {
			t.Errorf("study %q has a trace axis; only casestudy may", s.Name)
		}
	}
	for _, s := range studies {
		last := -1
		for _, p := range s.Parts {
			i, ok := index[p]
			if !ok || studies[i].run == nil {
				t.Errorf("composite %q names %q, which is not a leaf study", s.Name, p)
				continue
			}
			if i <= last {
				t.Errorf("composite %q lists %q out of list order", s.Name, p)
			}
			last = i
		}
	}
	all, _ := Lookup(DefaultStudy)
	var want []string
	for _, s := range studies {
		if s.run != nil && !slices.Contains([]string{"ensemble", "fig8", "fig9"}, s.Name) {
			want = append(want, s.Name)
		}
	}
	if !slices.Equal(all.Parts, want) {
		t.Errorf("%s = %v, want %v", DefaultStudy, all.Parts, want)
	}
}

func TestSelect(t *testing.T) {
	names := func(ss []Study) []string {
		var out []string
		for _, s := range ss {
			out = append(out, s.Name)
		}
		return out
	}
	got, err := Select([]string{"FIG3", " tablei", "fig3"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"tablei", "fig3"}; !slices.Equal(names(got), want) {
		t.Errorf("Select = %v, want %v (list order, once each)", names(got), want)
	}
	got, err = Select([]string{"tables", "tablev"})
	if err != nil {
		t.Fatal(err)
	}
	tables, _ := Lookup("tables")
	if !slices.Equal(names(got), tables.Parts) {
		t.Errorf("Select(tables) = %v, want its parts %v", names(got), tables.Parts)
	}
	if _, err := Select([]string{"tablei", "fig99"}); err == nil {
		t.Error("Select accepted an unknown name")
	}
	// The §V matrix runs once: fig8 with fig9 is casestudy, and casestudy
	// (alone or inside all) absorbs either figure.
	for _, c := range []struct{ in, want []string }{
		{[]string{"fig8"}, []string{"fig8"}},
		{[]string{"fig9", "fig8"}, []string{"casestudy"}},
		{[]string{"casestudy", "fig9"}, []string{"casestudy"}},
		{[]string{"tablev", "fig8", "overhead", "fig9"}, []string{"tablev", "casestudy", "overhead"}},
	} {
		got, err := Select(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(names(got), c.want) {
			t.Errorf("Select(%v) = %v, want %v", c.in, names(got), c.want)
		}
	}
	all, err := Select([]string{DefaultStudy})
	if err != nil {
		t.Fatal(err)
	}
	got, err = Select([]string{DefaultStudy, "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(names(got), names(all)) {
		t.Errorf("Select(%s, fig8) = %v, want Select(%s) = %v", DefaultStudy, names(got), DefaultStudy, names(all))
	}
}

// A canceled env makes every context-aware study return the context's
// error rather than a table of zeros.
func TestCanceledEnvReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := DefaultEnv()
	env.Ctx = ctx
	for name, run := range map[string]func() error{
		"TableIII":     func() error { _, err := TableIII(env); return err },
		"Fig4":         func() error { _, err := Fig4(env); return err },
		"Fig6":         func() error { _, err := Fig6(env); return err },
		"Fig8Ensemble": func() error { _, err := Fig8Ensemble(env, 2); return err },
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a canceled env = %v, want context.Canceled", name, err)
		}
	}
	tables, _ := Lookup("tables")
	if _, err := tables.Run(env, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("tables study on a canceled env = %v, want context.Canceled", err)
	}
}

// The ensemble's per-seed envs keep every setting but the seed and cache.
func TestWithSeedKeepsSettings(t *testing.T) {
	env := DefaultEnv()
	env.Workers = 3
	env.Faults = &faults.Config{}
	env.Backend = "ufs"
	env.UFSQueueDepth = 4
	env.Fork = func() (storage.Device, error) { return nil, nil }
	env.Ctx = context.Background()
	env.Trace("Idle")
	inner := env.withSeed(7)
	if inner.Seed != 7 || inner.Workers != 3 || inner.Faults != env.Faults ||
		inner.Backend != "ufs" || inner.UFSQueueDepth != 4 || inner.Fork == nil || inner.Ctx != env.Ctx {
		t.Errorf("withSeed dropped a setting: %+v", inner)
	}
	if inner.traceCache == env.traceCache || inner.generated.Load() != 0 {
		t.Error("withSeed shares the parent's trace cache")
	}
}
