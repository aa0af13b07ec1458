package node

import "bitcoinng/internal/chain"

// RecordTipChange exposes a tip change's Recorder report to the allocation
// pins.
func (b *Base) RecordTipChange(now int64, res *chain.AddResult) { b.recordTipChange(now, res) }
