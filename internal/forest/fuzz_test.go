package forest

import (
	"math"
	"testing"
)

// FuzzUnmarshal asserts the deserialization contract for untrusted forest
// files (the paper's third-party hand-off scenario): any byte slice either
// fails with an error or yields a sealed forest that predicts a finite
// value — never a panic. The seal must match the forest it decoded: the
// stored fingerprint equals the hash of its nodes, and the attached Flat
// predicts bitwise what the pointer walk does.
func FuzzUnmarshal(f *testing.F) {
	valid, err := Marshal(&Forest{
		NumFeatures: 2,
		Objective:   Regression,
		Trees: []Tree{{Nodes: []Node{
			{Feature: 0, Threshold: 0.5, Left: 1, Right: 2},
			{Left: -1, Right: -1, Value: 1},
			{Left: -1, Right: -1, Value: 2},
		}}},
	})
	if err != nil {
		f.Fatalf("marshal seed forest: %v", err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version":1,"forest":{"num_features":1}}`))
	f.Add([]byte(`{"version":1,"forest":{"num_features":1,"objective":"regression","trees":[{"nodes":[{"left":-1,"right":-1,"value":1e308}]}]}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":1,"forest":{"num_features":2,"objective":"regression","trees":[{"nodes":[{"feature":9,"threshold":0,"left":0,"right":0}]}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Unmarshal(data)
		if err != nil {
			return
		}
		// A forest that unmarshalled cleanly must be usable: Validate
		// passed inside Unmarshal, so prediction on an all-zeros row of
		// the declared width must not panic and must stay finite.
		x := make([]float64, fr.NumFeatures)
		if y := fr.Predict(x); math.IsNaN(y) {
			t.Fatalf("validated forest predicted NaN on zero input")
		}
		if fr.seal.Load() == nil {
			t.Fatal("decoded forest is not sealed")
		}
		if got, want := fr.Fingerprint(), fr.fingerprint(); got != want {
			t.Fatalf("sealed fingerprint %s, nodes hash to %s", got, want)
		}
		if got, want := fr.Flat().RawPredict(x), fr.RawPredict(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sealed Flat raw %v, pointer raw %v on zero input", got, want)
		}
	})
}
