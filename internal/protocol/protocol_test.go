package protocol

import (
	"errors"
	"strings"
	"testing"

	"bitcoinng/internal/crypto"
	"bitcoinng/internal/node"
	"bitcoinng/internal/sim"
	"bitcoinng/internal/simnet"
	"bitcoinng/internal/strategy"
	"bitcoinng/internal/types"
)

// newEnv returns an env no test runs and a config every protocol builds from.
func newEnv(t *testing.T) (node.Env, node.Config) {
	t.Helper()
	key, err := crypto.GenerateKey(sim.NewRand(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	loop := sim.NewLoop(0)
	env := simnet.NewNodeEnv(loop, simnet.New(loop, simnet.DefaultConfig(2, 1)), 0, 1)
	return env, node.Config{
		Params:          types.DefaultParams(),
		Key:             key,
		Genesis:         types.GenesisBlock(types.GenesisSpec{Target: crypto.EasiestTarget}),
		SimulatedMining: true,
	}
}

// TestNamesMatchTheSwitches keeps each Names list and the switch it
// describes from drifting apart: every listed name builds, every unknown
// one is refused with an error that lists the known names.
func TestNamesMatchTheSwitches(t *testing.T) {
	env, cfg := newEnv(t)
	spec := Spec{Config: cfg}

	want := map[Protocol]struct {
		payload types.BlockKind
		ng      bool
	}{
		Bitcoin:   {types.KindPow, false},
		GHOST:     {types.KindPow, false},
		BitcoinNG: {types.KindMicro, true},
	}
	names := Names()
	if len(names) != len(want) {
		t.Errorf("Names() = %v, want the %d protocols", names, len(want))
	}
	for _, name := range names {
		w, ok := want[Protocol(name)]
		if !ok {
			t.Errorf("Names() lists unexpected protocol %q", name)
			continue
		}
		spec.Protocol = Protocol(name)
		c, err := Build(env, spec)
		if err != nil {
			t.Errorf("Build(%q): %v", name, err)
			continue
		}
		if got := c.NG() != nil; got != w.ng {
			t.Errorf("Build(%q).NG() != nil is %v, want %v", name, got, w.ng)
		}
		if got := Payload(spec.Protocol); got != w.payload {
			t.Errorf("Payload(%q) = %v, want %v", name, got, w.payload)
		}
	}
	spec.Protocol = "no-such-protocol"
	_, err := Build(env, spec)
	if !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("Build(unknown) error = %v, want ErrUnknownProtocol", err)
	}
	for _, name := range names {
		if err != nil && !strings.Contains(err.Error(), name) {
			t.Errorf("Build(unknown) error %q does not list %q", err, name)
		}
	}

	strategies := strategy.Names()
	if len(strategies) != 4 {
		t.Errorf("strategy.Names() = %v, want the four strategies", strategies)
	}
	for _, name := range strategies {
		s, err := strategy.New(name)
		if err != nil {
			t.Errorf("strategy.New(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("strategy.New(%q).Name() = %q", name, s.Name())
		}
	}
	_, err = strategy.New("nope")
	if !errors.Is(err, strategy.ErrUnknown) {
		t.Errorf("strategy.New(unknown) error = %v, want strategy.ErrUnknown", err)
	}
	for _, name := range strategies {
		if err != nil && !strings.Contains(err.Error(), name) {
			t.Errorf("strategy.New(unknown) error %q does not list %q", err, name)
		}
	}
}

// TestBuildRefusesWhatAClientCannotHonour: Build hands the config to the
// protocol's constructor unchanged, and the constructor refuses an input its
// client cannot honour instead of dropping it. Every client needs a key.
// Censorship and mining strategies are Bitcoin-NG's, so Bitcoin and GHOST
// refuse both, but accept the honest strategy a fleet passes every node it
// assigns none.
func TestBuildRefusesWhatAClientCannotHonour(t *testing.T) {
	env, cfg := newEnv(t)
	inputs := []struct {
		name string
		set  func(*node.Config)
		want string // the refusal's text; "" when Bitcoin and GHOST accept
		ng   bool   // Bitcoin-NG refuses it too
	}{
		{"no key", func(c *node.Config) { c.Key = nil }, "config needs a key", true},
		{"censor", func(c *node.Config) { c.CensorTransactions = true }, "client cannot censor transactions", false},
		{"selfish", func(c *node.Config) { c.Strategy = strategy.NewSelfish() }, "client cannot run mining strategy", false},
		{"honest", func(c *node.Config) { c.Strategy = strategy.Honest{} }, "", false},
	}
	for _, p := range []Protocol{Bitcoin, GHOST, BitcoinNG} {
		for _, in := range inputs {
			spec := Spec{Protocol: p, Config: cfg}
			in.set(&spec.Config)
			want := in.want
			if p == BitcoinNG && !in.ng {
				want = ""
			}
			_, err := Build(env, spec)
			switch {
			case want == "" && err != nil:
				t.Errorf("%s with %s: %v, want it built", p, in.name, err)
			case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
				t.Errorf("%s with %s: error = %v, want %q", p, in.name, err, want)
			}
		}
	}
}
