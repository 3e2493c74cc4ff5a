package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

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

// Encoding instruments: a Marshal whose heavy parts (the family
// payload and the domains) all came from the fit artifact's memo counts
// as reused, any other Marshal as built.
var (
	mEncodingsReused = obs.Metrics().Counter("gef.explanation_encodings_reused")
	mEncodingsBuilt  = obs.Metrics().Counter("gef.explanation_encodings_built")
)

// encodeMemo holds a fit artifact's encoded heavy parts: the family
// payload (per includeCI for the gam family) and the sampling domains.
// Both are pure functions of the fit key — it embeds the sample key,
// which embeds the domains key — so every explanation served from the
// artifact encodes them identically. The memo fills lazily on the first
// Marshal; paths that never marshal encode nothing. Filled bytes are
// charged to the engine budget through charge.
type encodeMemo struct {
	model   SurrogateModel    // the artifact's model, the payload's source
	domains *sampling.Domains // the domains the fit was sampled over
	payload [2]memoBytes      // indexed by includeCI; non-gam families use [0]
	dom     memoBytes
	charge  func(bytes int64)
}

// memoBytes is one lazily encoded part.
type memoBytes struct {
	once sync.Once
	b    []byte
	err  error
}

// get returns the part's bytes, encoding them with enc on first use;
// built reports whether this call did the encoding.
func (mb *memoBytes) get(charge func(int64), enc func() ([]byte, error)) (b []byte, built bool, err error) {
	mb.once.Do(func() {
		built = true
		mb.b, mb.err = enc()
		if mb.err == nil {
			charge(int64(len(mb.b)))
		}
	})
	return mb.b, built, mb.err
}

// Marshal serializes the explanation to JSON. includeCI is forwarded to
// the GAM model serializer: with it the penalized Cholesky factor is
// embedded so credible intervals survive the round trip, at O(p²/2)
// floats of extra payload (it is ignored by the other families). Forest,
// Train and Test are not serialized — see Unmarshal for what a reloaded
// explanation can and cannot do.
func (e *Explanation) Marshal(includeCI bool) ([]byte, error) {
	return e.MarshalCtx(context.Background(), includeCI)
}

// MarshalCtx is Marshal with its span parented under ctx.
//
// The blob is spliced rather than passed through one json.Marshal of
// explanationJSON: encoding/json re-compacts and HTML-escapes every
// json.RawMessage byte by byte, and json.Marshal output is already
// compact and escaped, so appending the parts' encodings directly gives
// the same bytes without the re-scan. The heavy parts — the family
// payload and the domains — come from the fit artifact's memo when the
// explanation still holds the objects the memo encoded; the small parts
// are encoded per call, since Config echoes request fields (such as
// InteractionStrategy) that the fit key does not cover.
func (e *Explanation) MarshalCtx(ctx context.Context, includeCI bool) ([]byte, error) {
	fam := e.Family
	if fam == "" {
		fam = FamilyGAM
	}
	_, sp := obs.Start(ctx, "gef.marshal_explanation",
		obs.Int("features", len(e.Features)), obs.Int("pairs", len(e.Pairs)),
		obs.Str("family", fam), obs.Bool("include_ci", includeCI))
	defer sp.End()
	payload, pBuilt, err := e.encodePayload(fam, includeCI)
	if err != nil {
		return nil, err
	}
	dom, dBuilt, err := e.encodeDomains()
	if err != nil {
		return nil, err
	}

	out := splice{buf: make([]byte, 0, len(payload)+len(dom)+2048)}
	out.buf = append(out.buf, `{"version":`...)
	out.buf = strconv.AppendInt(out.buf, explanationFormatVersion, 10)
	out.value("family", fam)
	if len(payload) > 0 {
		// The gam family keeps its dedicated field so includeCI (and
		// version-1 readers of the inner model blob) continue to work.
		if e.Model != nil {
			out.raw("model", payload)
		} else {
			out.raw("payload", payload)
		}
	}
	out.value("features", e.Features)
	if len(e.Pairs) > 0 {
		out.value("pairs", e.Pairs)
	}
	if dom != nil {
		out.raw("domains", dom)
	}
	out.value("fidelity", e.Fidelity)
	out.value("config", e.Config)
	if len(e.Degradations) > 0 {
		out.value("degradations", e.Degradations)
	}
	if out.err != nil {
		return nil, out.err
	}
	buf := append(out.buf, '}')

	reused := !pBuilt && !dBuilt
	if reused {
		mEncodingsReused.Inc()
	} else {
		mEncodingsBuilt.Inc()
	}
	sp.Set(obs.Int("bytes", len(buf)), obs.Bool("memo_reused", reused))
	return buf, nil
}

// encodePayload returns the family payload's JSON and whether this call
// encoded it (rather than reading the memo).
func (e *Explanation) encodePayload(fam string, includeCI bool) ([]byte, bool, error) {
	var enc func() ([]byte, error)
	var memoOK bool
	m := e.enc
	switch {
	case e.Model != nil:
		enc = func() ([]byte, error) {
			b, err := e.Model.Marshal(includeCI)
			if err != nil {
				return nil, fmt.Errorf("gef: marshaling explanation model: %w", err)
			}
			return b, nil
		}
		if m != nil {
			gm, ok := m.model.(*gamModel)
			memoOK = ok && gm.m == e.Model
		}
	case e.Surrogate != nil:
		enc = func() ([]byte, error) {
			b, err := e.Surrogate.MarshalPayload()
			if err != nil {
				return nil, fmt.Errorf("gef: marshaling %s explanation payload: %w", fam, err)
			}
			return b, nil
		}
		memoOK = m != nil && m.model == e.Surrogate
		includeCI = false // only the gam payload depends on it
	default:
		return nil, false, fmt.Errorf("gef: cannot marshal an explanation without a model")
	}
	if !memoOK {
		b, err := enc()
		return b, true, err
	}
	slot := 0
	if includeCI {
		slot = 1
	}
	return m.payload[slot].get(m.charge, enc)
}

// encodeDomains returns the domains' JSON (nil when there are none) and
// whether this call encoded it.
func (e *Explanation) encodeDomains() ([]byte, bool, error) {
	if e.Domains == nil {
		return nil, false, nil
	}
	enc := func() ([]byte, error) { return json.Marshal(e.Domains) }
	if m := e.enc; m != nil && m.domains == e.Domains {
		return m.dom.get(m.charge, enc)
	}
	b, err := enc()
	return b, true, err
}

// splice appends the members of a JSON object after its first one, in
// the order and form json.Marshal writes explanationJSON's fields. The
// first encoding error sticks.
type splice struct {
	buf []byte
	err error
}

// raw appends a member whose value is already json.Marshal output.
func (s *splice) raw(name string, value []byte) {
	s.buf = append(s.buf, ',', '"')
	s.buf = append(s.buf, name...)
	s.buf = append(s.buf, '"', ':')
	s.buf = append(s.buf, value...)
}

// value appends a member encoded by json.Marshal.
func (s *splice) value(name string, v any) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		s.err = err
		return
	}
	s.raw(name, b)
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
