package chaos

import (
	"bytes"
	"reflect"
	"testing"

	"bitcoinng/internal/experiment"
)

// TestGenerateDeterministic: generation is a pure function of (config,
// seed) — identical programs, step schedules, and invariant wiring on every
// call — and different seeds actually explore different programs.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{}, 42)
	b := Generate(GenConfig{}, 42)
	if a.Desc != b.Desc {
		t.Fatalf("same seed, different programs:\n%s\n%s", a.Desc, b.Desc)
	}
	if len(a.Cfg.Scenario.Steps) != len(b.Cfg.Scenario.Steps) {
		t.Fatalf("same seed, different step counts: %d vs %d",
			len(a.Cfg.Scenario.Steps), len(b.Cfg.Scenario.Steps))
	}
	for i := range a.Cfg.Scenario.Steps {
		sa, sb := a.Cfg.Scenario.Steps[i], b.Cfg.Scenario.Steps[i]
		if sa.Offset != sb.Offset || sa.Step.Name != sb.Step.Name {
			t.Fatalf("step %d differs: %v %q vs %v %q",
				i, sa.Offset, sa.Step.Name, sb.Offset, sb.Step.Name)
		}
	}
	if !reflect.DeepEqual(a.Cfg.Strategies, b.Cfg.Strategies) ||
		!reflect.DeepEqual(a.Cfg.MiningShares, b.Cfg.MiningShares) {
		t.Fatal("same seed, different strategies or shares")
	}

	seen := map[string]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		seen[Generate(GenConfig{}, seed).Desc] = true
	}
	if len(seen) < 10 {
		t.Errorf("12 seeds produced only %d distinct programs", len(seen))
	}
}

// TestRunDeterministic is the acceptance property "same seed => byte-
// identical report": two full executions of one generated scenario produce
// identical digests.
func TestRunDeterministic(t *testing.T) {
	gen := Generate(GenConfig{}, 5) // includes a partition phase
	r1, err := experiment.Run(gen.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := experiment.Run(gen.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := Digest(r1), Digest(r2)
	if d1 != d2 {
		t.Fatalf("same seed diverged: %s", firstDiff(d1, d2))
	}
	if err := Verdict(gen.Seed, r1, nil); err != nil {
		t.Fatalf("seed 5 not clean: %v", err)
	}
}

// TestDifferential: the engine/cache cross-check passes on generated
// scenarios — parallelism 1 vs 4, connect cache on vs off.
func TestDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("3x replay per seed")
	}
	for _, seed := range []int64{2, 5} { // selfish+spike; partition+spike+adopt
		if err := Differential(Generate(GenConfig{}, seed)); err != nil {
			t.Errorf("differential failed: %v", err)
		}
	}
}

// TestSoakDeterministic: a whole campaign is a pure function of its
// configuration — two Soak calls render byte-identical reports.
func TestSoakDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2x4 scenarios")
	}
	cfg := SoakConfig{Seeds: 4, BaseSeed: 1, Parallelism: 2}
	var out1, out2 bytes.Buffer
	r1 := Soak(cfg)
	r1.Fprint(&out1)
	r2 := Soak(cfg)
	r2.Fprint(&out2)
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("soak reports differ:\n--- first\n%s--- second\n%s", out1.String(), out2.String())
	}
	if fails := r1.Failures(); len(fails) != 0 {
		t.Fatalf("soak seeds not clean: %v", fails)
	}
}
