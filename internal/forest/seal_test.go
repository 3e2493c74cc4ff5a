package forest

import (
	"math"
	"sync"
	"testing"
)

// TestSealStoresFingerprintAndFlat: an unsealed forest hashes and
// compiles per call and keeps nothing; Seal stores the same fingerprint
// and one Flat that predicts bitwise like the pointer walk, and a
// second Seal keeps them.
func TestSealStoresFingerprintAndFlat(t *testing.T) {
	f := twoTreeForest()
	want := f.Fingerprint()
	if f.Flat() == f.Flat() || f.seal.Load() != nil {
		t.Fatal("an unsealed forest kept its Flat or sealed itself")
	}
	if err := f.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	s := f.seal.Load()
	if s == nil || s.fp != want || f.Fingerprint() != want {
		t.Fatalf("sealed fingerprint %v, want %s", s, want)
	}
	if err := f.Seal(); err != nil || f.seal.Load() != s || f.Flat() != s.flat {
		t.Fatalf("second Seal replaced the seal (err %v)", err)
	}
	x := []float64{0.4, 0.9}
	if got, want := f.Flat().RawPredict(x), f.RawPredict(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sealed Flat raw %v, pointer raw %v", got, want)
	}
}

func TestSealRejectsInvalidForest(t *testing.T) {
	f := twoTreeForest()
	f.Trees[0].Nodes[0].Left = 99
	if err := f.Seal(); err == nil {
		t.Fatal("sealed an invalid forest")
	}
	if f.seal.Load() != nil {
		t.Fatal("a failed Seal left a seal behind")
	}
}

// TestSealConcurrent: concurrent first seals agree on one seal, so
// every caller reads the same Flat and fingerprint.
func TestSealConcurrent(t *testing.T) {
	f := twoTreeForest()
	const n = 8
	flats := make([]*Flat, n)
	var wg sync.WaitGroup
	for i := range flats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Seal(); err != nil {
				t.Error(err)
				return
			}
			flats[i] = f.Flat()
		}()
	}
	wg.Wait()
	for i, fl := range flats {
		if fl != flats[0] {
			t.Fatalf("caller %d read a different Flat", i)
		}
	}
}
