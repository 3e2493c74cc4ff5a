package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gef/internal/robust"
	"gef/internal/rules"
)

// TestExplanationRoundTrip: Marshal → Unmarshal preserves the model's
// predictions bitwise and every serialized structural field, including
// the degradation record.
func TestExplanationRoundTrip(t *testing.T) {
	f := gprimeForest(t)
	cfg := quickCfg()
	cfg.NumInteractions = 1
	e, err := NewEngine().Explain(f, cfg)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	// Degradations must survive the trip even though this run is clean.
	e.Degradations = append(e.Degradations, robust.Degradation{
		Stage:  "gam",
		Action: robust.ActionDropTensors,
		Reason: "synthetic entry for round-trip coverage",
		Detail: "1 tensor terms removed",
	})

	data, err := e.Marshal(true)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}

	if !reflect.DeepEqual(got.Features, e.Features) {
		t.Errorf("Features: got %v, want %v", got.Features, e.Features)
	}
	if !reflect.DeepEqual(got.Pairs, e.Pairs) {
		t.Errorf("Pairs: got %v, want %v", got.Pairs, e.Pairs)
	}
	if !reflect.DeepEqual(got.Degradations, e.Degradations) {
		t.Errorf("Degradations: got %v, want %v", got.Degradations, e.Degradations)
	}
	if got.Fidelity != e.Fidelity {
		t.Errorf("Fidelity: got %+v, want %+v", got.Fidelity, e.Fidelity)
	}
	if !reflect.DeepEqual(got.Config, e.Config) {
		t.Errorf("Config: got %+v, want %+v", got.Config, e.Config)
	}
	if got.Domains == nil || !reflect.DeepEqual(got.Domains.Points, e.Domains.Points) {
		t.Errorf("Domains did not round-trip")
	}
	if got.Forest != nil || got.Train != nil || got.Test != nil {
		t.Error("Forest/Train/Test must be nil on a reloaded explanation")
	}

	// The reloaded model must predict bitwise identically.
	for i, x := range e.Test.X[:50] {
		want := e.Model.Predict(x)
		if have := got.Model.Predict(x); have != want {
			t.Fatalf("prediction %d: got %v, want %v", i, have, want)
		}
	}

	if _, err := Unmarshal([]byte(`{"version":99,"model":{}}`)); err == nil {
		t.Error("future format version accepted")
	}
}

// TestFamilyPayloadRoundTrip covers the non-GAM families' serialization
// path: the family tag and the family-specific payload must survive the
// trip, and the reloaded surrogate must predict bitwise identically
// where the family supports standalone prediction.
func TestFamilyPayloadRoundTrip(t *testing.T) {
	f := gprimeForest(t)

	t.Run("smoother", func(t *testing.T) {
		cfg := quickCfg()
		cfg.Family = FamilySmoother
		e, err := NewEngine().Explain(f, cfg)
		if err != nil {
			t.Fatalf("Explain: %v", err)
		}
		data, err := e.Marshal(false)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if got.Family != FamilySmoother {
			t.Fatalf("family = %q, want %q", got.Family, FamilySmoother)
		}
		if got.Model != nil {
			t.Fatal("smoother explanation must not carry a GAM model")
		}
		// The smoother payload is self-contained: the reloaded model must
		// predict bitwise identically to the in-process one.
		for i, x := range e.Test.X[:50] {
			want := e.Surrogate.Predict(x)
			if have := got.Surrogate.Predict(x); have != want {
				t.Fatalf("prediction %d: got %v, want %v", i, have, want)
			}
		}
	})

	t.Run("rules", func(t *testing.T) {
		cfg := quickCfg()
		cfg.Family = FamilyRules
		e, err := NewEngine().Explain(f, cfg)
		if err != nil {
			t.Fatalf("Explain: %v", err)
		}
		data, err := e.Marshal(false)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if got.Family != FamilyRules {
			t.Fatalf("family = %q, want %q", got.Family, FamilyRules)
		}
		// A reloaded rule model retains only its summary (the forest is
		// not serialized): the fitted summary must round-trip exactly.
		type summarized interface{ Rules() *rules.Model }
		want := e.Surrogate.(summarized).Rules().Summary()
		have := got.Surrogate.(summarized).Rules().Summary()
		if want != have {
			t.Fatalf("summary: got %+v, want %+v", have, want)
		}
		if got.Surrogate.(summarized).Rules().Fitted() {
			t.Fatal("reloaded rule model claims to be fitted")
		}
	})
}

// TestUnknownFamilyTypedError pins forward compatibility: a blob tagged
// with a family this build does not know — a future one, or the lime and
// distill baselines that are no longer fit-stage families — must fail
// with a typed ErrConfig naming the family, never a panic, never a
// silent gam parse.
func TestUnknownFamilyTypedError(t *testing.T) {
	for _, fam := range []string{"holo", "lime", "distill"} {
		_, err := Unmarshal([]byte(`{"version":2,"family":"` + fam + `","payload":{}}`))
		if err == nil {
			t.Errorf("family %q accepted", fam)
			continue
		}
		if !errors.Is(err, robust.ErrConfig) {
			t.Errorf("family %q: err = %v, want robust.ErrConfig", fam, err)
		}
		if !strings.Contains(err.Error(), `"`+fam+`"`) {
			t.Errorf("error %q does not name the unknown family %q", err, fam)
		}
	}
}

// TestV1BlobStillLoads pins backward compatibility: version-1 blobs
// (written before explainer families existed) carry no family tag and
// must load as gam.
func TestV1BlobStillLoads(t *testing.T) {
	f := gprimeForest(t)
	e, err := NewEngine().Explain(f, quickCfg())
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	data, err := e.Marshal(false)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// Rewrite the blob to the v1 shape: version 1, no family field.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = json.RawMessage("1")
	delete(raw, "family")
	v1, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(v1)
	if err != nil {
		t.Fatalf("v1 blob rejected: %v", err)
	}
	if got.Family != FamilyGAM || got.Model == nil {
		t.Fatalf("v1 blob loaded as family %q (model nil: %v), want gam", got.Family, got.Model == nil)
	}
}
