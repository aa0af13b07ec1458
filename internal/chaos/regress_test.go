package chaos

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bitcoinng/internal/experiment"
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
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			seed, golden := readSeed(t, file)
			gen := Generate(GenConfig{}, seed)
			res, err := experiment.Run(gen.Cfg)
			if err := Verdict(seed, res, err); err != nil {
				t.Fatalf("%v\nprogram: %s", err, gen.Desc)
			}
			if got := ShortDigest(Digest(res)); got != golden {
				t.Fatalf("digest %s, want golden %s\nprogram: %s\n%s", got, golden, gen.Desc, Digest(res))
			}
			if testing.Short() {
				return // the differential replay triples the cost
			}
			if err := Differential(gen); err != nil {
				t.Fatalf("%v\nprogram: %s", err, gen.Desc)
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
