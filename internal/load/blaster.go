package load

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"bitcoinng/internal/chain"
	"bitcoinng/internal/types"
)

// Mode names a blaster's pacing discipline.
type Mode string

const (
	// Open offers transactions at a fixed rate regardless of confirmation
	// progress — the discipline that finds the saturation knee.
	Open Mode = "open"
	// Closed keeps a fixed window of unconfirmed transactions outstanding —
	// the discipline that measures the system's self-paced ceiling.
	Closed Mode = "closed"
)

// OfferedAt returns how many transactions an open-loop driver at rate tx/s
// has offered by virtual time now (nanoseconds): floor(rate * t).
func OfferedAt(rate float64, now int64) int64 {
	if rate <= 0 || now <= 0 {
		return 0
	}
	return int64(rate * (float64(now) / float64(time.Second)))
}

// OfferTime returns the virtual time (nanoseconds) at which an open-loop
// driver at rate tx/s offers transaction i — the inverse of OfferedAt.
func OfferTime(rate float64, i int64) int64 {
	if rate <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(i+1) / rate * float64(time.Second)))
}

// BlasterConfig parameterizes a Blaster.
type BlasterConfig struct {
	// Mode defaults to Open when Rate > 0, Closed otherwise.
	Mode Mode
	// Rate is the open-loop offered rate in tx/s.
	Rate float64
	// Window is the closed-loop outstanding-transaction target.
	Window int64
}

// Blaster is a rate-controlled injector over a Stream: each Tick it submits
// every transaction the pacing discipline says is due by the current
// virtual time. It records actual injection times, so latency percentiles
// measure from the moment a transaction entered the system.
//
// Blaster is driven from a single goroutine (the harness loop between run
// slices); it is not safe for concurrent use.
type Blaster struct {
	cfg    BlasterConfig
	stream *Stream

	injected   int64
	rejected   int64
	offerBase  int64
	offerTimes []int64 // virtual inject time per index, from offerBase
}

// NewBlaster wires a blaster over stream.
func NewBlaster(stream *Stream, cfg BlasterConfig) *Blaster {
	if cfg.Mode == "" {
		if cfg.Rate > 0 {
			cfg.Mode = Open
		} else {
			cfg.Mode = Closed
		}
	}
	if cfg.Mode == Closed && cfg.Window <= 0 {
		cfg.Window = 1024
	}
	return &Blaster{cfg: cfg, stream: stream}
}

// Injected returns how many transactions have been submitted so far.
func (b *Blaster) Injected() int64 { return b.injected }

// Rejected returns how many submissions every target refused (pool full or
// conflicting) — offered load the system shed at admission.
func (b *Blaster) Rejected() int64 { return b.rejected }

// Tick submits every transaction due by virtual time now. For open loop the
// frontier is OfferedAt(rate, now); for closed loop it is confirmed+Window.
// submit delivers one transaction and reports whether any target admitted
// it; rejected transactions still count as injected (the load was offered).
func (b *Blaster) Tick(now int64, confirmed int64, submit func(*types.Transaction) bool) {
	var frontier int64
	switch b.cfg.Mode {
	case Open:
		frontier = OfferedAt(b.cfg.Rate, now)
	case Closed:
		frontier = confirmed + b.cfg.Window
	}
	for b.injected < frontier {
		tx := b.stream.Tx(b.injected)
		if tx == nil {
			return // stream cap reached
		}
		if !submit(tx) {
			b.rejected++
		}
		b.offerTimes = append(b.offerTimes, now)
		b.injected++
	}
}

// ReleaseBehind frees stream slots more than slack behind the confirmation
// floor and drops the matching offer-time prefix, shifting the rest down in
// place: the log's array stays the size of the outstanding window, and Tick
// appends into it without regrowing.
func (b *Blaster) ReleaseBehind(floor, slack int64) {
	b.stream.Release(floor - slack)
	base := b.stream.Released()
	if drop := base - b.offerBase; drop > 0 && drop <= int64(len(b.offerTimes)) {
		n := copy(b.offerTimes, b.offerTimes[drop:])
		b.offerTimes = b.offerTimes[:n]
		b.offerBase = base
	}
}

// offerTimeOf returns the recorded injection time of index i, if retained.
func (b *Blaster) offerTimeOf(i int64) (int64, bool) {
	j := i - b.offerBase
	if j < 0 || j >= int64(len(b.offerTimes)) {
		return 0, false
	}
	return b.offerTimes[j], true
}

// Report summarizes the blast against the final confirmations.
func (b *Blaster) Report(duration time.Duration, confs []Confirmation) *Report {
	offered := b.injected
	if b.cfg.Mode == Open {
		if due := OfferedAt(b.cfg.Rate, int64(duration)); due > offered {
			offered = due
		}
	}
	return buildReport(b.cfg.Mode, b.cfg.Rate, b.cfg.Window, duration,
		offered, b.injected, confs, b.offerTimeOf)
}

// Confirmation is one stream transaction observed on a final main chain.
type Confirmation struct {
	Index int64
	Time  int64 // confirming block's header timestamp, virtual nanos
}

// Confirmations walks a final main chain tip-to-genesis and collects every
// stream transaction with the block timestamp that serialized it. The walk
// reads only committed chain structure, so it is engine-independent and
// byte-identical at any parallelism. A first pass reads each body once,
// keeping its transactions and counting them, an upper bound on the result,
// so it is allocated once instead of grown; the timestamp is the header's.
func Confirmations(tip *chain.Node) []Confirmation {
	bodies := make([][]*types.Transaction, 0, tip.Height+1)
	size := 0
	for n := tip; n != nil; n = n.Parent {
		bodies = append(bodies, n.Block().Transactions())
		size += len(bodies[len(bodies)-1])
	}
	out := make([]Confirmation, 0, size)
	for i, n := 0, tip; n != nil; i, n = i+1, n.Parent {
		for _, tx := range bodies[i] {
			if idx, ok := TxIndex(tx); ok {
				out = append(out, Confirmation{Index: idx, Time: n.Time()})
			}
		}
	}
	slices.SortFunc(out, func(a, b Confirmation) int { return cmp.Compare(a.Index, b.Index) })
	return out
}

// Report is one sustained-load measurement.
type Report struct {
	Mode   Mode
	Rate   float64 // open-loop offered rate (tx/s); 0 for closed loop
	Window int64   // closed-loop outstanding target; 0 for open loop

	Duration  time.Duration // measured virtual interval
	Offered   int64         // transactions the discipline called due
	Admitted  int64         // transactions actually submitted/materialized
	Confirmed int64         // stream transactions on the reference main chain

	// Confirmation-latency percentiles (offer to serializing block
	// timestamp); zero when nothing confirmed.
	P50, P90, P99 time.Duration
}

// ConfirmedPerSec is the measured goodput.
func (r *Report) ConfirmedPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Confirmed) / r.Duration.Seconds()
}

// Fprint renders the report; everything printed is a deterministic function
// of the simulation, so CI can diff it byte for byte.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "load: mode=%s", r.Mode)
	if r.Mode == Open {
		fmt.Fprintf(w, " rate=%.2f/s", r.Rate)
	} else {
		fmt.Fprintf(w, " window=%d", r.Window)
	}
	fmt.Fprintf(w, " dur=%v offered=%d admitted=%d confirmed=%d (%.2f tx/s)\n",
		r.Duration, r.Offered, r.Admitted, r.Confirmed, r.ConfirmedPerSec())
	if r.Confirmed > 0 {
		fmt.Fprintf(w, "load: latency p50=%v p90=%v p99=%v\n", r.P50, r.P90, r.P99)
	}
}

// BuildReport summarizes a run whose offer times follow the analytic
// open-loop schedule (the in-sim experiment path, where views release
// transactions by the virtual clock rather than via a Blaster).
func BuildReport(mode Mode, rate float64, window int64, duration time.Duration,
	offered, admitted int64, confs []Confirmation) *Report {
	return buildReport(mode, rate, window, duration, offered, admitted, confs,
		func(i int64) (int64, bool) {
			if mode != Open {
				return 0, false
			}
			return OfferTime(rate, i), true
		})
}

func buildReport(mode Mode, rate float64, window int64, duration time.Duration,
	offered, admitted int64, confs []Confirmation,
	offerTime func(int64) (int64, bool)) *Report {
	r := &Report{
		Mode:      mode,
		Rate:      rate,
		Window:    window,
		Duration:  duration,
		Offered:   offered,
		Admitted:  admitted,
		Confirmed: int64(len(confs)),
	}
	if mode != Open {
		r.Rate = 0
	}
	var lats []time.Duration
	for _, c := range confs {
		at, ok := offerTime(c.Index)
		if !ok {
			continue
		}
		lat := time.Duration(c.Time - at)
		if lat < 0 {
			lat = 0 // confirmed in the same slice it was offered
		}
		lats = append(lats, lat)
	}
	if len(lats) > 0 {
		slices.Sort(lats)
		r.P50 = percentile(lats, 0.50)
		r.P90 = percentile(lats, 0.90)
		r.P99 = percentile(lats, 0.99)
	}
	return r
}

// percentile is nearest-rank over a sorted sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
