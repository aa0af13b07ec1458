package parity_test

import (
	"testing"

	"bitcoinng/internal/lint/dataflow"
	"bitcoinng/internal/lint/linttest"
	"bitcoinng/internal/lint/parity"
)

// TestFixtures drives all four contract families over a synthetic surface
// with one deliberate gap per family.
func TestFixtures(t *testing.T) {
	l, pkgs := linttest.LoadFixtures(t,
		"parityfx/iface", "parityfx/impl",
		"parityfx/wiremsg", "parityfx/codec",
		"parityfx/cat", "parityfx/hooks")
	prog := dataflow.NewProgram(l.Fset(), pkgs)
	c := parity.Contracts{
		Impl: []parity.ImplContract{
			{IfacePkg: "parityfx/iface", IfaceName: "Runner"},
		},
		Msg: []parity.MsgContract{{
			ConstPkg:    "parityfx/wiremsg",
			ConstType:   "Kind",
			ConstExempt: map[string]string{"KindZero": "zero value, never framed"},
			IfacePkg:    "parityfx/codec",
			IfaceName:   "Message",
			ImplPkg:     "parityfx/codec",
			Encoder:     "parityfx/codec.encode",
			Decoder:     "parityfx/codec.decode",
			Dispatcher:  "parityfx/codec.dispatch",
		}},
		Catalogue: []parity.CatalogueContract{{
			Pkg:        "parityfx/cat",
			ResultType: "Check",
			Aggregator: "parityfx/cat.All",
		}},
		Hooks: []parity.HookContract{
			{IfacePkg: "parityfx/hooks", IfaceName: "Hook"},
		},
	}
	diags := parity.Run(prog, c)
	linttest.CheckAll(t, l.Fset(), pkgs, diags)
}
