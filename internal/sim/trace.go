package sim

import "strconv"

// Trace is a run's reproducibility stream: a running FNV-1a hash over
// every recorded event and a count of them. Two runs are cycle-identical
// iff their trace hashes match (paper Section III). It retains nothing;
// a test that needs the records themselves keeps its own copy.
type Trace struct {
	hash  uint64
	count uint64
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{hash: fnvOffset64} }

// fnv1a64 constants (hash/fnv's offset basis and prime); Record hashes
// the exact byte stream "%d|%s|%s" inline so it stays bit-identical to the
// hash/fnv formulation over that text while allocating nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnv1aWord folds the eight little-endian bytes of w.
func fnv1aWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ w&0xff) * fnvPrime64
		w >>= 8
	}
	return h
}

// Record folds a text event at time at into the hash.
func (tr *Trace) Record(at Cycles, tag, detail string) {
	var num [20]byte
	h := uint64(fnvOffset64)
	for _, c := range strconv.AppendUint(num[:0], uint64(at), 10) {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	h = (h ^ '|') * fnvPrime64
	h = fnv1aString(h, tag)
	h = (h ^ '|') * fnvPrime64
	h = fnv1aString(h, detail)
	tr.fold(h)
}

// RecordWords is Record for fixed-width payloads: it folds at, tag and
// each word as eight bytes, with no text formatting.
func (tr *Trace) RecordWords(at Cycles, tag string, words ...uint64) {
	h := fnv1aString(fnv1aWord(fnvOffset64, uint64(at)), tag)
	for _, w := range words {
		h = fnv1aWord(h, w)
	}
	tr.fold(h)
}

func (tr *Trace) fold(h uint64) {
	tr.count++
	tr.hash = tr.hash*fnvPrime64 ^ h
}

// Hash returns the running hash over all recorded events. Two runs with
// equal hashes executed the same tagged events at the same cycles in the
// same order.
func (tr *Trace) Hash() uint64 { return tr.hash }

// Count returns the number of events recorded.
func (tr *Trace) Count() uint64 { return tr.count }
