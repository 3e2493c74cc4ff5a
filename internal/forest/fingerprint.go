package forest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Fingerprint returns a deterministic 64-bit FNV-1a digest of the
// forest's full structure: objective, feature width, base score, and
// every node's split and leaf fields, bit-exact for the float64 values.
// Two forests share a fingerprint iff they encode the same trees, so the
// digest identifies a forest as a cache key: every artifact the GEF
// pipeline derives from a forest alone (threshold sets, gain
// importances, sampling domains, D*) is a pure function of this value
// plus the configuration fields the deriving stage reads.
//
// Feature names are deliberately excluded — they label outputs but never
// influence any computed artifact.
//
// A sealed forest returns the digest Seal stored; an unsealed one is
// hashed on every call.
func (f *Forest) Fingerprint() string {
	if s := f.seal.Load(); s != nil {
		return s.fp
	}
	return f.fingerprint()
}

// fingerprint hashes every node of f (see Fingerprint).
func (f *Forest) fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		//lint:ignore errdrop hash.Hash Write never returns an error
		h.Write(buf[:])
	}
	wf := func(v float64) { wu(math.Float64bits(v)) }
	wu(uint64(f.NumFeatures))
	wf(f.BaseScore)
	//lint:ignore errdrop hash.Hash Write never returns an error
	h.Write([]byte(f.Objective))
	wu(uint64(len(f.Trees)))
	for ti := range f.Trees {
		nodes := f.Trees[ti].Nodes
		wu(uint64(len(nodes)))
		for ni := range nodes {
			n := &nodes[ni]
			wu(uint64(int64(n.Feature)))
			wu(uint64(int64(n.Left)))
			wu(uint64(int64(n.Right)))
			wf(n.Threshold)
			wf(n.Gain)
			wf(n.Cover)
			wf(n.Value)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
