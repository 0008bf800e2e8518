package trace

import (
	"crypto/sha256"
	"encoding/hex"
)

// Merge combines traces into one, re-sorted by time. The earliest
// epoch wins; merging an empty set yields an empty trace.
func Merge(traces ...*Trace) *Trace {
	out := &Trace{}
	for _, t := range traces {
		if t == nil || len(t.Records) == 0 {
			continue
		}
		if out.Epoch.IsZero() || t.Epoch.Before(out.Epoch) {
			out.Epoch = t.Epoch
		}
		out.Records = append(out.Records, t.Records...)
	}
	out.Sort()
	return out
}

// Anonymize returns a copy of the trace with every client identifier
// replaced by a stable pseudonym derived from an HMAC-style salted
// hash — the standard preparation before sharing a log. The same
// (salt, client) pair always maps to the same pseudonym, preserving
// session structure.
func (t *Trace) Anonymize(salt string) *Trace {
	names := make(map[string]string)
	out := &Trace{Epoch: t.Epoch, Records: make([]Record, len(t.Records))}
	for i, r := range t.Records {
		name, ok := names[r.Client]
		if !ok {
			sum := sha256.Sum256([]byte(salt + "\x00" + r.Client))
			name = "client-" + hex.EncodeToString(sum[:6])
			names[r.Client] = name
		}
		r.Client = name
		out.Records[i] = r
	}
	return out
}

// SplitByDay partitions the trace into per-day traces, one per day
// window that contains records, keyed by day index — the paper's "day
// files". Each sub-trace keeps the original epoch so day numbering
// stays global.
func (t *Trace) SplitByDay() map[int]*Trace {
	out := make(map[int]*Trace)
	for _, r := range t.Records {
		d := r.Day(t.Epoch)
		sub := out[d]
		if sub == nil {
			sub = &Trace{Epoch: t.Epoch}
			out[d] = sub
		}
		sub.Records = append(sub.Records, r)
	}
	return out
}
