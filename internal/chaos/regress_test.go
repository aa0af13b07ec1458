package chaos

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRegressionSeeds replays every committed regression seed at full
// generator scale, including the engine/cache differential. The workflow:
// any seed that ever fails a soak, a fuzzing campaign, or CI gets a file
// under testdata/seeds (the decimal seed, a "digest <ShortDigest>" line
// pinning the run's expected fingerprint, the rest free-form notes on what
// it caught), and from then on an ordinary `go test` replays it forever —
// past failures become permanent tier-1 tests. The pinned digest is the
// golden oracle for harness refactors: "byte-identical before and after"
// means every seed still reproduces the digest recorded before the change.
// Re-record one only for a change that is meant to alter behaviour.
func TestRegressionSeeds(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "seeds", "*.seed"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no regression seeds committed; testdata/seeds must hold at least the initial set")
	}
	gens := make([]Generated, len(files))
	goldens := make([]string, len(files))
	for i, file := range files {
		seed, golden := readSeed(t, file)
		gens[i], goldens[i] = Generate(GenConfig{}, seed), golden
	}
	// Every seed and every differential variant share one pool; each seed
	// is still judged on its own.
	variants := diffVariants
	if testing.Short() {
		// The differential replay multiplies the cost; keep the sharded
		// engine, which is what -race -short is there to exercise.
		variants = variants[1:2]
	}
	outcomes := sweepSeeds(gens, variants, 0)
	for i, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			out := outcomes[i]
			if out.Err != nil {
				t.Errorf("%v\nprogram: %s", out.Err, out.Gen.Desc)
			}
			if got := ShortDigest(out.Digest); got != goldens[i] {
				t.Errorf("digest %s, want golden %s\nprogram: %s\n%s", got, goldens[i], out.Gen.Desc, out.Digest)
			}
		})
	}
}

// readSeed parses a seed file: the first non-empty, non-comment line is the
// decimal seed, the next one "digest <hex>" — the run's golden ShortDigest.
func readSeed(t *testing.T, file string) (seed int64, golden string) {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	haveSeed := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if haveSeed {
			golden, ok := strings.CutPrefix(line, "digest ")
			if !ok {
				t.Fatalf("%s: want \"digest <hex>\" after the seed, got %q", file, line)
			}
			return seed, golden
		}
		var err error
		if seed, err = strconv.ParseInt(line, 10, 64); err != nil {
			t.Fatalf("%s: bad seed line %q: %v", file, line, err)
		}
		haveSeed = true
	}
	t.Fatalf("%s: no seed and digest lines", file)
	return 0, ""
}
