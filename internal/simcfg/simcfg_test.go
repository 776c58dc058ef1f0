package simcfg

import (
	"errors"
	"math"
	"testing"
)

func f(v float64) *float64 { return &v }

func TestResolveDefaultsOnly(t *testing.T) {
	_, err := Resolve(Legacy{}, nil)
	if err == nil {
		t.Fatal("dt is required; empty input must not resolve")
	}
	eff, err := Resolve(Legacy{DT: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := Defaults()
	if eff.Algorithm != d.Algorithm || eff.Theta != d.Theta ||
		eff.Eps != d.Eps || eff.G != d.G || eff.TreeReuse.RebuildEvery != 1 {
		t.Errorf("defaults not applied: %+v", eff)
	}
	if eff.DT != 0.5 {
		t.Errorf("dt %v", eff.DT)
	}
}

func TestResolveExplicitZeros(t *testing.T) {
	// The config object distinguishes explicit zero from absent — the
	// whole reason it exists.
	eff, err := Resolve(Legacy{}, &Config{DT: 0.1, Eps: f(0), G: f(0)})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Eps != 0 || eff.G != 0 {
		t.Errorf("explicit zeros lost: eps=%v g=%v", eff.Eps, eff.G)
	}
	// The legacy path cannot express them: zero inherits the default.
	eff, err = Resolve(Legacy{DT: 0.1, Eps: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Eps != Defaults().Eps {
		t.Errorf("legacy zero eps must inherit the default, got %v", eff.Eps)
	}
}

func TestResolvePrecedence(t *testing.T) {
	eff, err := Resolve(
		Legacy{DT: 0.2, Theta: 0.7, Algorithm: "bvh"},
		&Config{DT: 0.4, Eps: f(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	if eff.DT != 0.4 {
		t.Errorf("config dt must win: %v", eff.DT)
	}
	if eff.Theta != 0.7 || eff.Algorithm != "bvh" {
		t.Errorf("legacy fields config leaves unset must apply: %+v", eff)
	}
	if eff.Eps != 0.01 {
		t.Errorf("eps %v", eff.Eps)
	}
}

func TestResolveTreeReuse(t *testing.T) {
	eff, err := Resolve(Legacy{DT: 0.1},
		&Config{TreeReuse: &TreeReuse{RefitThreshold: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if eff.TreeReuse.RebuildEvery != 1 {
		t.Errorf("rebuild_every 0 must inherit the default: %+v", eff.TreeReuse)
	}
	if eff.TreeReuse.RefitThreshold != 0.05 {
		t.Errorf("refit threshold %v", eff.TreeReuse.RefitThreshold)
	}
	// Legacy rebuild_every still flows through.
	eff, err = Resolve(Legacy{DT: 0.1, RebuildEvery: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.TreeReuse.RebuildEvery != 4 {
		t.Errorf("legacy rebuild_every lost: %+v", eff.TreeReuse)
	}
}

func TestResolveInvalidFields(t *testing.T) {
	cases := []struct {
		name  string
		cfg   *Config
		field string
	}{
		{"bad algorithm", &Config{Algorithm: "fmm", DT: 0.1}, "algorithm"},
		{"zero dt", &Config{}, "dt"},
		{"negative dt", &Config{DT: -1}, "dt"},
		{"nan dt", &Config{DT: math.NaN()}, "dt"},
		{"negative eps", &Config{DT: 0.1, Eps: f(-1)}, "eps"},
		{"negative theta", &Config{DT: 0.1, Theta: f(-0.5)}, "theta"},
		{"inf g", &Config{DT: 0.1, G: f(math.Inf(1))}, "g"},
		{"negative rebuild", &Config{DT: 0.1, TreeReuse: &TreeReuse{RebuildEvery: -1}}, "tree_reuse.rebuild_every"},
		{"nan refit", &Config{DT: 0.1, TreeReuse: &TreeReuse{RefitThreshold: math.NaN()}}, "tree_reuse.refit_threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Resolve(Legacy{}, tc.cfg)
			var ie *InvalidError
			if !errors.As(err, &ie) {
				t.Fatalf("want *InvalidError, got %v", err)
			}
			if ie.Field != tc.field {
				t.Errorf("field %q, want %q (%v)", ie.Field, tc.field, err)
			}
		})
	}
}

func TestResolvePipeline(t *testing.T) {
	b := func(v bool) *bool { return &v }
	eff, err := Resolve(Legacy{DT: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Pipeline {
		t.Error("pipeline must default to off")
	}
	eff, err = Resolve(Legacy{DT: 0.1}, &Config{Pipeline: b(true)})
	if err != nil {
		t.Fatal(err)
	}
	if !eff.Pipeline {
		t.Error("explicit pipeline=true lost")
	}
	// Explicit false is distinguishable from absent, like every other
	// pointer-typed field.
	eff, err = Resolve(Legacy{DT: 0.1}, &Config{Pipeline: b(false)})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Pipeline {
		t.Error("explicit pipeline=false must resolve to off")
	}
	// Pipeline survives the Effective → core.Config → Effective round
	// trip that checkpoints and job records depend on.
	eff, err = Resolve(Legacy{DT: 0.1}, &Config{Pipeline: b(true)})
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := eff.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if back := EffectiveOf(ccfg); !back.Pipeline {
		t.Errorf("pipeline lost in round trip: %+v", back)
	}
}

func TestCoreConfigRoundTrip(t *testing.T) {
	eff, err := Resolve(Legacy{}, &Config{
		Algorithm: "bvh", DT: 0.25,
		Theta: f(0.9), Eps: f(0), G: f(2),
		TreeReuse: &TreeReuse{RebuildEvery: 3, RefitThreshold: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := eff.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	back := EffectiveOf(ccfg)
	if back != eff {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, eff)
	}
}
