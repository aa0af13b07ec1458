package validate

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bitcoinng/internal/types"
)

// Pool runs stage-1 (stateless) verification work in parallel with a barrier:
// Run returns only when every item has been processed, so callers sitting at
// an event-loop boundary (an experiment about to start, a live node about to
// enqueue a decoded block) observe exactly the same state as if the work had
// run serially — the items are pure functions whose verdicts land in the
// objects' own caches, and the barrier keeps any parallelism invisible to
// the deterministic single-threaded loops.
//
// Workers never share an item, so the non-atomic verdict caches on types
// objects (Transaction, PowBlock, ...) stay race-free: each object is touched
// by one worker, and the barrier's WaitGroup edge publishes the writes to the
// caller.
type Pool struct {
	workers int
}

// NewPool creates a pool with the given parallelism; workers <= 0 takes
// GOMAXPROCS. A single-worker pool runs inline with no goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

var sharedPool = NewPool(0)

// SharedPool returns the process-wide pool sized to the machine.
func SharedPool() *Pool { return sharedPool }

// minParallelItems is the batch size below which goroutine fan-out costs more
// than it saves.
const minParallelItems = 16

// Run invokes fn(i) for every i in [0, n) and waits for all of them (the
// barrier). fn must not touch shared mutable state; distinct items may run
// concurrently in any order.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n < minParallelItems {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// WarmTransactions pre-computes every transaction's stateless verdict and
// derived values (ID, wire size, input addresses) so the event loop only ever
// sees cache hits. Verification errors are left in the objects' caches for
// the consensus path to surface in context.
func (p *Pool) WarmTransactions(txs []*types.Transaction) {
	p.Run(len(txs), func(i int) {
		tx := txs[i]
		tx.CheckWellFormed()
		tx.ID()
		tx.WireSize()
		for j := range tx.Inputs {
			tx.InputAddr(j)
		}
	})
}

// WarmBlock pre-computes a block's stateless work: hash, wire size, the
// header-level well-formedness verdict where it needs no context (PoW and key
// blocks), and every carried transaction's verdict. Microblock signature
// checks need the epoch's leader key and stay with the contextual stage. The
// live p2p reader warms a freshly decoded block before posting it to the event
// loop, and chain.State.addOne warms any block that reaches the chain cold.
// Every cache this fills is atomic, so a block shared between simulated nodes
// may be warmed while another shard reads it.
func (p *Pool) WarmBlock(b types.Block) {
	b.Hash()
	b.WireSize()
	// Warm the transactions first so the block-level verdict below reduces
	// to Merkle hashing over already-verified objects.
	p.WarmTransactions(b.Transactions())
	if pb, ok := types.CarriesPoW(b); ok {
		pb.CheckWellFormed()
	}
}
