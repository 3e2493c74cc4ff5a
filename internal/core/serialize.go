package core

import (
	"context"
	"encoding/json"
	"fmt"

	"gef/internal/featsel"
	"gef/internal/obs"
	"gef/internal/robust"
	"gef/internal/sampling"
)

// explanationFormatVersion guards the Explanation JSON layout; bump it
// on any incompatible change so old artifacts fail loudly instead of
// deserializing garbage. Version 2 added the explainer-family tag and
// the family-specific payload; version-1 blobs (always GAM) are still
// accepted.
const explanationFormatVersion = 2

// explanationJSON is the serialized form of an Explanation. The forest
// and the D* splits are deliberately omitted: the forest is the input
// the caller already owns (and D* is reproducible from Config.Seed),
// while the fitted model, the selected structure, the sampling domains
// and the degradation record are the explanation itself.
type explanationJSON struct {
	Version int `json:"version"`
	// Family tags the payload's explainer family (empty in version-1
	// blobs, meaning gam).
	Family string `json:"family,omitempty"`
	// Model carries the gam family's serialized model (its historical
	// field, kept so version-1 blobs and CI-bearing GAM payloads keep
	// their layout); Payload carries every other family's model state.
	Model        json.RawMessage      `json:"model,omitempty"`
	Payload      json.RawMessage      `json:"payload,omitempty"`
	Features     []int                `json:"features"`
	Pairs        []featsel.Pair       `json:"pairs,omitempty"`
	Domains      *sampling.Domains    `json:"domains,omitempty"`
	Fidelity     Fidelity             `json:"fidelity"`
	Config       Config               `json:"config"`
	Degradations []robust.Degradation `json:"degradations,omitempty"`
}

// Marshal serializes the explanation to JSON. includeCI is forwarded to
// the GAM model serializer: with it the penalized Cholesky factor is
// embedded so credible intervals survive the round trip, at O(p²/2)
// floats of extra payload (it is ignored by the other families). Forest,
// Train and Test are not serialized — see Unmarshal for what a reloaded
// explanation can and cannot do.
func (e *Explanation) Marshal(includeCI bool) ([]byte, error) {
	fam := e.Family
	if fam == "" {
		fam = FamilyGAM
	}
	_, sp := obs.Start(context.Background(), "gef.marshal_explanation",
		obs.Int("features", len(e.Features)), obs.Int("pairs", len(e.Pairs)),
		obs.Str("family", fam), obs.Bool("include_ci", includeCI))
	defer sp.End()
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
		// The gam family keeps its dedicated field so includeCI (and
		// version-1 readers of the inner model blob) continue to work.
		mb, err := e.Model.Marshal(includeCI)
		if err != nil {
			return nil, fmt.Errorf("gef: marshaling explanation model: %w", err)
		}
		ej.Model = mb
	case e.Surrogate != nil:
		pb, err := e.Surrogate.MarshalPayload()
		if err != nil {
			return nil, fmt.Errorf("gef: marshaling %s explanation payload: %w", fam, err)
		}
		ej.Payload = pb
	default:
		return nil, fmt.Errorf("gef: cannot marshal an explanation without a model")
	}
	return json.Marshal(ej)
}

// Unmarshal reconstructs an explanation serialized by Marshal (current
// or version-1 format). The result predicts, explains instances and
// reports its structure, fidelity and degradations; Forest, Train and
// Test are nil, so methods needing them (EvaluateOn, ExplainInstance's
// forest cross-check) must not be called on a reloaded explanation.
// Rule-family payloads reload as summary-only models (they predict NaN
// — the source forest is not part of the payload). A blob tagged with
// an unknown family fails with a typed robust.ErrConfig.
func Unmarshal(data []byte) (*Explanation, error) {
	_, sp := obs.Start(context.Background(), "gef.unmarshal_explanation",
		obs.Int("bytes", len(data)))
	defer sp.End()
	var ej explanationJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return nil, fmt.Errorf("gef: parsing explanation JSON: %w", err)
	}
	if ej.Version < 1 || ej.Version > explanationFormatVersion {
		return nil, fmt.Errorf("gef: explanation format version %d, want 1..%d", ej.Version, explanationFormatVersion)
	}
	fam := ej.Family
	if fam == "" {
		fam = FamilyGAM // version-1 blobs predate families and are always GAM
	}
	sur, err := surrogateFor(fam)
	if err != nil {
		return nil, fmt.Errorf("gef: reloading explanation: %w", err)
	}
	ex := &Explanation{
		Family:       fam,
		Features:     ej.Features,
		Pairs:        ej.Pairs,
		Domains:      ej.Domains,
		Fidelity:     ej.Fidelity,
		Config:       ej.Config,
		Degradations: ej.Degradations,
	}
	raw := ej.Payload
	if fam == FamilyGAM {
		raw = ej.Model // the gam family keeps its historical field
	}
	m, err := sur.UnmarshalPayload(raw)
	if err != nil {
		return nil, fmt.Errorf("gef: reloading %s explanation payload: %w", fam, err)
	}
	if g, ok := m.(*gamModel); ok {
		ex.Model = g.m
	}
	ex.Surrogate = m
	return ex, nil
}
