// Package ws is the wiresym fixture: codec pairs over the real wire
// package, good and deliberately broken.
package ws

import "bitcoinng/internal/wire"

// Good is fully symmetric.
type Good struct {
	A       uint64
	B       bool
	Payload []byte
}

func (g *Good) EncodeWire(w *wire.Writer) {
	w.Uint64(g.A)
	w.Bool(g.B)
	w.VarBytes(g.Payload)
}

func (g *Good) DecodeWire(r *wire.Reader) {
	g.A = r.Uint64()
	g.B = r.Bool()
	g.Payload = r.VarBytes(wire.MaxMessageSize)
}

// Swapped decodes fields in the wrong order.
type Swapped struct{ A, B uint64 }

func (s *Swapped) EncodeWire(w *wire.Writer) {
	w.Uint64(s.A)
	w.Uint64(s.B)
}

func (s *Swapped) DecodeWire(r *wire.Reader) {
	s.B = r.Uint64() // want `wire field-order mismatch in method Swapped: step 1 encodes u64\(A\) but decodes into u64\(B\)`
	s.A = r.Uint64()
}

// KindMismatch reads a different width than it wrote.
type KindMismatch struct{ A uint32 }

func (k *KindMismatch) EncodeWire(w *wire.Writer) { w.Uint32(k.A) }

func (k *KindMismatch) DecodeWire(r *wire.Reader) {
	k.A = uint32(r.Uint64()) // want `encode step 1 is u32\(A\) but decode step 1 is u64`
}

// Missing forgets a trailing field on decode.
type Missing struct{ A, B uint64 }

func (m *Missing) EncodeWire(w *wire.Writer) {
	w.Uint64(m.A)
	w.Uint64(m.B)
}

func (m *Missing) DecodeWire(r *wire.Reader) { // want `decode reads fewer steps than encode writes \(2 vs 1`
	m.A = r.Uint64()
}

// List exercises helper pairs and loop grouping: encodeItems/decodeItems
// must agree, and the method pair delegating to them must agree.
type List struct{ Items []uint64 }

func encodeItems(w *wire.Writer, items []uint64) {
	w.VarInt(uint64(len(items)))
	for _, it := range items {
		w.Uint64(it)
	}
}

func decodeItems(r *wire.Reader) []uint64 {
	n := r.Length(1 << 10)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func (l *List) EncodeWire(w *wire.Writer) { encodeItems(w, l.Items) }
func (l *List) DecodeWire(r *wire.Reader) { l.Items = decodeItems(r) }

// FlatList encodes element-wise but decodes the whole list in one step:
// the loop structure diverges.
type FlatList struct{ Items []uint64 }

func encodeFlat(w *wire.Writer, f *FlatList) {
	w.VarInt(uint64(len(f.Items)))
	for _, it := range f.Items {
		w.Uint64(it)
	}
}

func decodeFlat(r *wire.Reader, f *FlatList) { // want `wire asymmetry in helper flat: decode reads more steps than encode writes \(4 vs 5; first unmatched: u64\)`
	n := r.Length(1 << 10)
	f.Items = make([]uint64, n)
	for i := range f.Items {
		f.Items[i] = r.Uint64()
	}
	_ = r.Uint64() // the stray extra read the analyzer pins
}

// OptGood uses the discriminated-optional idiom symmetrically: encode
// writes the presence bool in both branches, decode reads it in the
// condition. No diagnostic.
type OptGood struct {
	A   uint64
	Ext *Good
}

func (o *OptGood) EncodeWire(w *wire.Writer) {
	w.Uint64(o.A)
	if o.Ext != nil {
		w.Bool(true)
		o.Ext.EncodeWire(w)
	} else {
		w.Bool(false)
	}
}

func (o *OptGood) DecodeWire(r *wire.Reader) {
	o.A = r.Uint64()
	if r.Bool() {
		o.Ext = &Good{}
		o.Ext.DecodeWire(r)
	} else {
		o.Ext = nil
	}
}

// OptBad forgets the absent-case write: when Ext is nil the encoder emits
// nothing, so the decoder's presence bool reads payload bytes.
type OptBad struct {
	A   uint64
	Ext *Good
}

func (o *OptBad) EncodeWire(w *wire.Writer) {
	w.Uint64(o.A)
	if o.Ext != nil {
		w.Bool(true)
		o.Ext.EncodeWire(w)
	}
}

func (o *OptBad) DecodeWire(r *wire.Reader) {
	o.A = r.Uint64()
	if r.Bool() { // want `wire asymmetry in method OptBad: encode step 3 is sub-codec\(Ext\) but decode step 3 is optional group start`
		o.Ext = &Good{}
		o.Ext.DecodeWire(r)
	}
}

// Batch pairs the list-member codecs: a counted list of length-prefixed
// members (VarEncode/VarDecode) and an embedded body (Embed/DecodeWire).
type Batch struct {
	Head    *Good
	Members []*Good
}

func (g *Good) WireSize() int { return wire.Size(g) }

func (b *Batch) EncodeWire(w *wire.Writer) {
	w.Embed(b.Head)
	w.VarInt(uint64(len(b.Members)))
	for _, m := range b.Members {
		w.VarEncode(m)
	}
}

func (b *Batch) DecodeWire(r *wire.Reader) {
	b.Head.DecodeWire(r)
	b.Members = make([]*Good, r.Count(16, 2))
	for i := range b.Members {
		b.Members[i] = new(Good)
		r.VarDecode(64, b.Members[i])
	}
}

// Unprefixed writes members length-prefixed but reads them bare.
type Unprefixed struct{ Members []*Good }

func (u *Unprefixed) EncodeWire(w *wire.Writer) {
	w.VarInt(uint64(len(u.Members)))
	for _, m := range u.Members {
		w.VarEncode(m)
	}
}

func (u *Unprefixed) DecodeWire(r *wire.Reader) {
	u.Members = make([]*Good, r.Count(16, 2))
	for i := range u.Members {
		u.Members[i] = new(Good)
		u.Members[i].DecodeWire(r) // want `encode step 3 is varcodec\(m\) but decode step 3 is sub-codec`
	}
}
