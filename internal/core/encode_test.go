package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"gef/internal/dataset"
	"gef/internal/forest"
	"gef/internal/gbdt"
	"gef/internal/obs"
	"gef/internal/robust"
)

// referenceMarshal is the encoding/json encoder MarshalCtx replaced: one
// json.Marshal of explanationJSON, the family payload carried as a
// json.RawMessage. MarshalCtx must reproduce its bytes exactly.
func referenceMarshal(e *Explanation, includeCI bool) ([]byte, error) {
	fam := e.Family
	if fam == "" {
		fam = FamilyGAM
	}
	ej := explanationJSON{
		Version:      explanationFormatVersion,
		Family:       fam,
		Features:     e.Features,
		Pairs:        e.Pairs,
		Domains:      e.Domains,
		Fidelity:     e.Fidelity,
		Config:       e.Config,
		Degradations: e.Degradations,
	}
	switch {
	case e.Model != nil:
		mb, err := e.Model.Marshal(includeCI)
		if err != nil {
			return nil, err
		}
		ej.Model = mb
	case e.Surrogate != nil:
		pb, err := e.Surrogate.MarshalPayload()
		if err != nil {
			return nil, err
		}
		ej.Payload = pb
	default:
		return nil, fmt.Errorf("no model")
	}
	return json.Marshal(ej)
}

// encodeForest is a small G′ forest for the encoding tests.
func encodeForest(t testing.TB) *forest.Forest {
	t.Helper()
	ds := dataset.GPrime(1500, 0.1, 17)
	f, err := gbdt.Train(ds, gbdt.Params{NumTrees: 30, NumLeaves: 16, Seed: 1})
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	return f
}

func encodeCfg(family string) Config {
	cfg := quickCfg()
	cfg.NumUnivariate = 4
	cfg.NumSamples = 1500
	cfg.NumInteractions = 1
	cfg.Family = family
	return cfg
}

// encodeFixture is one explanation the encoding tests marshal.
type encodeFixture struct {
	name string
	ex   *Explanation
}

// encodeFixtures returns, per family, an explanation served warm from a
// fit artifact (clean and with a recorded degradation), a GAM
// explanation degraded by the fit ladder under fault injection, and an
// AutoExplain result (no fit artifact, so no memo).
func encodeFixtures(t testing.TB, f *forest.Forest) []encodeFixture {
	t.Helper()
	eng := NewEngine()
	var out []encodeFixture
	for _, fam := range Families() {
		if _, err := eng.Explain(f, encodeCfg(fam)); err != nil {
			t.Fatalf("%s: cold Explain: %v", fam, err)
		}
		clean, err := eng.Explain(f, encodeCfg(fam))
		if err != nil {
			t.Fatalf("%s: warm Explain: %v", fam, err)
		}
		out = append(out, encodeFixture{fam + "/clean", clean})
		degraded, err := eng.Explain(f, encodeCfg(fam))
		if err != nil {
			t.Fatalf("%s: warm Explain: %v", fam, err)
		}
		degraded.Degradations = append(degraded.Degradations, robust.Degradation{
			Stage: "sampling", Action: robust.ActionDropFeature,
			Reason: "collapsed domain <&>  ", Detail: "feature 9 dropped from F′",
		})
		out = append(out, encodeFixture{fam + "/degraded", degraded})
	}

	robust.SetInjector(robust.NewInjector(1, robust.FailAlways(robust.SiteCholesky, 0)))
	ladder, err := eng.Explain(f, encodeCfg(FamilyGAM))
	robust.SetInjector(nil)
	if err != nil {
		t.Fatalf("Explain under injection: %v", err)
	}
	if len(ladder.Degradations) == 0 {
		t.Fatal("injected Cholesky failure recorded no degradation")
	}
	out = append(out, encodeFixture{"gam/ladder", ladder})

	auto, _, err := eng.AutoExplain(f, AutoConfig{Base: encodeCfg(FamilyGAM), MaxUnivariate: 3, MaxInteractions: 1})
	if err != nil {
		t.Fatalf("AutoExplain: %v", err)
	}
	out = append(out, encodeFixture{"auto", auto})
	return out
}

// TestMarshalMatchesReference: for every family × includeCI × {clean,
// degraded}, and for AutoExplain results, MarshalCtx's spliced bytes
// equal the encoding/json reference byte for byte — on the call that
// fills the memo and on the call that reuses it.
func TestMarshalMatchesReference(t *testing.T) {
	for _, fx := range encodeFixtures(t, encodeForest(t)) {
		for _, ci := range []bool{false, true} {
			want, err := referenceMarshal(fx.ex, ci)
			if err != nil {
				t.Fatalf("%s ci=%v: reference: %v", fx.name, ci, err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := fx.ex.Marshal(ci)
				if err != nil {
					t.Fatalf("%s ci=%v pass %d: %v", fx.name, ci, pass, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s ci=%v pass %d: spliced blob differs from the reference\n got %.200s\nwant %.200s",
						fx.name, ci, pass, got, want)
				}
			}
		}
	}
}

// TestMarshalIgnoresStaleMemo: an explanation whose model or domains no
// longer are the objects its fit artifact's memo encoded is encoded
// afresh, never from the memo.
func TestMarshalIgnoresStaleMemo(t *testing.T) {
	f := encodeForest(t)
	eng := NewEngine()
	for _, fam := range Families() {
		a, err := eng.Explain(f, encodeCfg(fam))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Marshal(false); err != nil { // fill the memo
			t.Fatal(err)
		}
		other := encodeCfg(fam)
		other.NumUnivariate-- // other features: other domains and model
		b, err := eng.Explain(f, other)
		if err != nil {
			t.Fatal(err)
		}
		swapped := *a
		swapped.Model, swapped.Surrogate, swapped.Domains = b.Model, b.Surrogate, b.Domains
		got, err := swapped.Marshal(false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceMarshal(&swapped, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: an explanation with a swapped model and domains was encoded from the stale memo", fam)
		}
	}
}

// encodeCounts reads the reused/built encoding counters.
func encodeCounts() (reused, built int64) {
	return obs.Metrics().Counter("gef.explanation_encodings_reused").Value(),
		obs.Metrics().Counter("gef.explanation_encodings_built").Value()
}

// TestMarshalMemoGates are the deterministic memo gates: a warm engine's
// second Marshal reuses the memo (the reuse counter moves, the build
// counter does not); AutoExplain builds no encoding; the memoized bytes
// are charged to CacheStats().Bytes and eviction returns them.
func TestMarshalMemoGates(t *testing.T) {
	f := encodeForest(t)

	r0, b0 := encodeCounts()
	if _, _, err := NewEngine().AutoExplain(f, AutoConfig{Base: encodeCfg(FamilyGAM), MaxUnivariate: 3}); err != nil {
		t.Fatal(err)
	}
	if r1, b1 := encodeCounts(); r1 != r0 || b1 != b0 {
		t.Fatalf("AutoExplain moved the encoding counters: reused %d→%d, built %d→%d", r0, r1, b0, b1)
	}

	for _, fam := range Families() {
		eng := NewEngine()
		ex, err := eng.Explain(f, encodeCfg(fam))
		if err != nil {
			t.Fatal(err)
		}
		before := eng.CacheStats().Bytes
		first, err := ex.Marshal(false)
		if err != nil {
			t.Fatal(err)
		}
		memo := int64(len(ex.enc.payload[0].b) + len(ex.enc.dom.b))
		if memo == 0 {
			t.Fatalf("%s: Marshal left the memo empty", fam)
		}
		if got := eng.CacheStats().Bytes - before; got != memo {
			t.Fatalf("%s: CacheStats().Bytes grew by %d after the first Marshal, want the %d memoized bytes", fam, got, memo)
		}

		warm, err := eng.Explain(f, encodeCfg(fam))
		if err != nil {
			t.Fatal(err)
		}
		r0, b0 := encodeCounts()
		second, err := warm.Marshal(false)
		if err != nil {
			t.Fatal(err)
		}
		r1, b1 := encodeCounts()
		if r1-r0 != 1 || b1 != b0 {
			t.Fatalf("%s: warm Marshal moved reused by %d and built by %d, want 1 and 0", fam, r1-r0, b1-b0)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: warm Marshal differs from the first", fam)
		}

		eng.mu.Lock()
		eng.budget = 0
		eng.evictLocked()
		eng.mu.Unlock()
		if st := eng.CacheStats(); st.Bytes != 0 || st.Entries != 0 {
			t.Fatalf("%s: after evicting everything the cache holds %d entries, %d bytes; want 0, 0", fam, st.Entries, st.Bytes)
		}
	}
}

// FuzzExplanationMarshal: Unmarshal never panics, and every blob it
// accepts re-marshals through the splice encoder to exactly the
// encoding/json reference's bytes, with and without credible
// intervals. The corpus is seeded with the encoding table's blobs.
func FuzzExplanationMarshal(f *testing.F) {
	for _, fx := range encodeFixtures(f, encodeForest(f)) {
		for _, ci := range []bool{false, true} {
			blob, err := fx.ex.Marshal(ci)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := Unmarshal(data)
		if err != nil {
			return
		}
		for _, ci := range []bool{false, true} {
			want, werr := referenceMarshal(ex, ci)
			got, gerr := ex.Marshal(ci)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("ci=%v: reference error %v, splice error %v", ci, werr, gerr)
			}
			if werr == nil && !bytes.Equal(got, want) {
				t.Fatalf("ci=%v: spliced blob differs from the reference\n got %s\nwant %s", ci, got, want)
			}
		}
	})
}

// TestMarshalConcurrent: goroutines marshaling explanations served from
// one fit artifact at once all get the reference bytes, and the memo
// charges the engine exactly once per filled slot (run under -race).
func TestMarshalConcurrent(t *testing.T) {
	f := encodeForest(t)
	eng := NewEngine()
	cfg := encodeCfg(FamilyGAM)
	if _, err := eng.Explain(f, cfg); err != nil {
		t.Fatal(err)
	}
	before := eng.CacheStats().Bytes
	var want [2][]byte
	var exs [8]*Explanation
	for i := range exs {
		ex, err := eng.Explain(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		exs[i] = ex
	}
	for ci := range want {
		b, err := referenceMarshal(exs[0], ci == 1)
		if err != nil {
			t.Fatal(err)
		}
		want[ci] = b
	}
	var wg sync.WaitGroup
	for i, ex := range exs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ci := i % 2
			got, err := ex.Marshal(ci == 1)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want[ci]) {
				t.Errorf("goroutine %d: blob differs from the reference", i)
			}
		}()
	}
	wg.Wait()
	m := exs[0].enc
	memo := int64(len(m.payload[0].b) + len(m.payload[1].b) + len(m.dom.b))
	if got := eng.CacheStats().Bytes - before; got != memo {
		t.Fatalf("CacheStats().Bytes grew by %d, want the %d memoized bytes", got, memo)
	}
}
