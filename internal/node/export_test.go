package node

import "bitcoinng/internal/chain"

// RecordTipChange exposes a tip change's Recorder report to the allocation
// pins.
func (b *Base) RecordTipChange(now int64, res *chain.AddResult) { b.recordTipChange(now, res) }

// OwnPoolBuilt reports whether the node built its own mempool.
func (b *Base) OwnPoolBuilt() bool { return b.own.p != nil }
