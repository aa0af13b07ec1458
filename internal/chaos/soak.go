package chaos

import (
	"fmt"
	"io"

	"bitcoinng/internal/experiment"
	"bitcoinng/internal/invariant"
)

// SoakConfig sizes a soak campaign.
type SoakConfig struct {
	// Seeds is how many scenarios to generate and run; default 50.
	Seeds int
	// BaseSeed is the first seed; seeds run BaseSeed..BaseSeed+Seeds-1.
	// Zero is a valid base (replaying a seed-0 failure must not silently
	// run a different seed); ngbench supplies the default of 1.
	BaseSeed int64
	// Gen bounds the generator.
	Gen GenConfig
	// Parallelism bounds the experiment.Sweep worker pool the runs execute
	// on; 0 takes GOMAXPROCS.
	Parallelism int
	// Differential additionally replays every seed under the sharded engine
	// and with the connect cache off, failing any digest divergence. Tripling
	// the work, it is the default for CI soaks (cheap at chaos scale).
	Differential bool
}

// SeedOutcome is one seed's result in a soak report.
type SeedOutcome struct {
	Gen Generated
	// Digest is the canonical result digest of the baseline run (empty when
	// the run itself errored).
	Digest string
	// Violations are the baseline run's invariant violations.
	Violations []invariant.Violation
	// Err is the seed's failure — run error, scenario-step error, invariant
	// violation, or differential divergence — nil when clean.
	Err error
}

// SoakReport is a completed campaign.
type SoakReport struct {
	Cfg      SoakConfig
	Outcomes []SeedOutcome
}

// Failures lists every failed seed's error, in seed order.
func (r *SoakReport) Failures() []error {
	var out []error
	for i := range r.Outcomes {
		if err := r.Outcomes[i].Err; err != nil {
			out = append(out, err)
		}
	}
	return out
}

// Soak generates Seeds scenarios and runs each twice under the baseline
// variant (and, with Differential, once per engine/cache/storage replay)
// concurrently on the experiment.Sweep pool, failing a seed whose two
// baseline digests differ.
// The returned report is a pure function of the configuration: same
// SoakConfig, byte-identical Fprint output — proven by
// TestSoakDeterministic and relied on by the CI soak gate.
//
// Soak itself never fails a campaign; callers decide what to do with
// report.Failures(). A run that fails or panics fails its seed, with the
// run's own error.
func Soak(cfg SoakConfig) *SoakReport {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 50
	}

	gens := make([]Generated, cfg.Seeds)
	for i := range gens {
		gens[i] = Generate(cfg.Gen, cfg.BaseSeed+int64(i))
	}

	// The baseline always runs twice: the differential only compares
	// different variants, so without the repeat a seed whose digest drifts
	// from run to run under one configuration would pass unseen.
	variants := []engineVariant{diffVariants[0], diffVariants[0]}
	if cfg.Differential {
		variants = append(variants, diffVariants[1:]...)
	}
	return &SoakReport{Cfg: cfg, Outcomes: sweepSeeds(gens, variants, cfg.Parallelism)}
}

// sweepSeeds runs every seed under every variant, flattened (seed x
// variant) into one experiment.Sweep so the pool keeps every core busy, and
// judges each seed on its own: the first variant is the baseline whose
// digest and verdict the seed reports, and every later variant must repeat
// its digest byte for byte.
func sweepSeeds(gens []Generated, variants []engineVariant, parallelism int) []SeedOutcome {
	cfgs := make([]experiment.Config, 0, len(gens)*len(variants))
	for _, gen := range gens {
		for _, v := range variants {
			cfgs = append(cfgs, variantConfig(gen, v))
		}
	}
	results, sweepErr := experiment.Sweep(cfgs, parallelism)

	outcomes := make([]SeedOutcome, len(gens))
	for i, gen := range gens {
		out := &outcomes[i]
		out.Gen = gen
		base := results[i*len(variants)]
		if base == nil {
			out.Err = Failure{Seed: gen.Seed, Err: experiment.PointErr(sweepErr, i*len(variants))}
			continue
		}
		out.Digest = Digest(base)
		out.Violations = base.InvariantViolations
		if err := Verdict(gen.Seed, base, nil); err != nil {
			out.Err = err
			continue
		}
		for j := 1; j < len(variants); j++ {
			res := results[i*len(variants)+j]
			if res == nil {
				out.Err = Failure{Seed: gen.Seed, Err: fmt.Errorf(
					"differential %s failed: %w", variants[j].name,
					experiment.PointErr(sweepErr, i*len(variants)+j))}
				break
			}
			if d := Digest(res); d != out.Digest {
				what := "differential divergence between " + variants[0].name + " and " + variants[j].name
				if variants[j] == variants[0] {
					what = "run-to-run drift: " + variants[0].name + " run twice"
				}
				out.Err = Failure{Seed: gen.Seed, Err: fmt.Errorf("%s: %s", what, firstDiff(out.Digest, d))}
				break
			}
		}
	}
	return outcomes
}

// Fprint writes the campaign as a deterministic table: one row per seed
// with its verdict, digest fingerprint, and generated program, then every
// failure in detail, then the summary line. CI diffs this output across
// engines; nothing host- or timing-dependent may appear here.
func (r *SoakReport) Fprint(w io.Writer) {
	diff := "off"
	if r.Cfg.Differential {
		diff = "on"
	}
	fmt.Fprintf(w, "chaos soak: %d seeds from %d, differential %s\n",
		r.Cfg.Seeds, r.Cfg.BaseSeed, diff)
	fmt.Fprintf(w, "%6s  %-4s  %-8s  %s\n", "seed", "ok", "digest", "program")
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		verdict := "ok"
		if o.Err != nil {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%6d  %-4s  %-8s  %s\n",
			o.Gen.Seed, verdict, ShortDigest(o.Digest), o.Gen.Desc)
	}
	failures := r.Failures()
	for _, err := range failures {
		fmt.Fprintf(w, "FAIL %v\n", err)
	}
	fmt.Fprintf(w, "chaos soak: %d/%d seeds clean\n",
		len(r.Outcomes)-len(failures), len(r.Outcomes))
}
