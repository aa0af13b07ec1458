package validate_test

import (
	"encoding/hex"
	"math"
	"testing"

	"bitcoinng/internal/bitcoin"
	"bitcoinng/internal/core"
	"bitcoinng/internal/types"
	"bitcoinng/internal/validate"
)

// TestFingerprintsArePinned pins the rules fingerprint of the default
// parameters under both protocols' rules, first computed and then memoized:
// a fingerprint that moved would split or merge connect-cache universes.
func TestFingerprintsArePinned(t *testing.T) {
	params := types.DefaultParams()
	for _, tc := range []struct {
		rules interface{ RulesID() string }
		want  string
	}{
		{core.Rules{}, "dc863263887dbb57dc77c9ec2430d20e15de889706c95324d7de835e7de33840"},
		{core.Rules{AllowSimulatedPoW: true}, "266a5a45bdb691ed2606e8777225aba195fa268394382440d0736c41245e72be"},
		{bitcoin.Rules{}, "2e7a2d2193ea935b520164cf532fc7ae3f163270cc295411bbed147341cd8dce"},
		{bitcoin.Rules{AllowSimulatedPoW: true}, "832e06e5e3e8702f28db56e8bbbb10feba3e57448c641d3df5851c6f7a67a832"},
	} {
		for _, pass := range []string{"first", "memoized"} {
			fp := validate.FingerprintOf(tc.rules.RulesID(), params)
			if got := hex.EncodeToString(fp[:]); got != tc.want {
				t.Errorf("%s, %s: fingerprint %s, want %s", tc.rules.RulesID(), pass, got, tc.want)
			}
		}
	}
}

// TestFingerprintSeparatesParams: a changed parameter, or a NaN one (which
// the memo cannot keep), still gets its own fingerprint, every time.
func TestFingerprintSeparatesParams(t *testing.T) {
	base := types.DefaultParams()
	changed := base
	changed.Subsidy++
	nan := base
	nan.LeaderFeeFrac = math.NaN()
	id := core.Rules{}.RulesID()
	seen := map[validate.Fingerprint]string{}
	for _, tc := range []struct {
		name   string
		params types.Params
	}{{"default", base}, {"subsidy+1", changed}, {"NaN fee split", nan}} {
		fp := validate.FingerprintOf(id, tc.params)
		if again := validate.FingerprintOf(id, tc.params); again != fp {
			t.Errorf("%s: fingerprint changed between calls", tc.name)
		}
		if other, dup := seen[fp]; dup {
			t.Errorf("%s shares its fingerprint with %s", tc.name, other)
		}
		seen[fp] = tc.name
	}
}
