package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"gef/internal/robust"
)

func TestAdmissionShedsBeyondCapacity(t *testing.T) {
	adm := newAdmission(1, 1) // one worker, one queued → admitted set of 2
	r1, err := adm.enter(false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := adm.enter(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adm.enter(false); !errors.Is(err, errShed) {
		t.Fatalf("third arrival got %v, want errShed", err)
	}
	if status, _ := statusOf(errShed); status != http.StatusTooManyRequests {
		t.Fatalf("shed maps to %d, want 429", status)
	}
	r1()
	r3, err := adm.enter(false)
	if err != nil {
		t.Fatalf("release did not free capacity: %v", err)
	}
	r2()
	r3()
	if got := adm.admitted.Load(); got != 0 {
		t.Fatalf("admitted counter leaked: %d", got)
	}
}

func TestAdmissionShedsWhileDraining(t *testing.T) {
	adm := newAdmission(4, 4)
	if _, err := adm.enter(true); !errors.Is(err, errShed) {
		t.Fatalf("draining admission got %v, want errShed", err)
	}
}

func TestWorkerTokenDeadlineIs504(t *testing.T) {
	adm := newAdmission(1, 8)
	release, err := adm.token(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := adm.token(ctx); !errors.Is(err, robust.ErrDeadline) {
		t.Fatalf("queued-for-token expiry got %v, want ErrDeadline", err)
	}
	release()
	// Token usable again after release.
	release2, err := adm.token(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release2()
}

// TestShedEndToEnd fills the admitted set directly, then proves an HTTP
// request is shed with 429 + Retry-After and a typed body — the
// cheap-overload contract.
func TestShedEndToEnd(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{MaxInFlight: 1, MaxQueue: -1})
	release, err := s.adm.enter(false)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "overload",
		explainRequest{Fingerprint: fp, Config: fastConfig()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (body %s), want 429", resp.StatusCode, payload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	st := s.Stats()
	if st.Tenants["overload"].Shed != 1 {
		t.Fatalf("shed not accounted: %+v", st.Tenants["overload"])
	}
}

// TestDrainShedsNewArrivals: once draining, new requests shed with 429
// even though workers are idle — drain means finish, not accept.
func TestDrainShedsNewArrivals(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{DrainTimeout: time.Minute})
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "",
		explainRequest{Fingerprint: fp, Config: fastConfig()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status during drain = %d, want 429", resp.StatusCode)
	}
}

// TestDrainIsIdempotent: the first Drain fixes the deadline; repeat
// calls neither extend nor crash.
func TestDrainIsIdempotent(t *testing.T) {
	s := New(Options{DrainTimeout: 50 * time.Millisecond})
	defer s.Close()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.drainMu.Lock()
	first := s.drainAt
	s.drainMu.Unlock()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.drainMu.Lock()
	second := s.drainAt
	s.drainMu.Unlock()
	if !first.Equal(second) {
		t.Fatalf("second Drain moved the deadline: %v → %v", first, second)
	}
}

// TestNoGoroutineLeaks runs a mixed load — coalesced duplicates, a
// cancelled waiter, shap, a shed — then closes the server and requires
// the goroutine count to settle back. This is the -race companion to
// the "no hung connections" acceptance criterion.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		s, ts, fp := newTestServer(t, Options{})
		cfg := fastConfig()
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "leak",
					explainRequest{Fingerprint: fp, Config: cfg})
			}()
		}
		// One waiter that abandons its request mid-flight.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/explain", nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
		wg.Wait()
		doJSON(t, http.MethodPost, ts.URL+"/v1/shap", "leak",
			shapRequest{Fingerprint: fp, X: []float64{0.2, 0.4, 0.6, 0.8, 1}})
		if err := s.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
		s.Close()
	}()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: started with %d, settled at %d", before, runtime.NumGoroutine())
}

// TestCoalescingEndToEnd proves the handler→coalescer wiring: with a
// computation already in flight for the exact key an HTTP request will
// derive, the request joins it, returns the shared result, and the
// stats record a coalesce hit. Pre-installing the call makes the
// overlap deterministic (real concurrent overlap is statistical and is
// exercised by TestLoadDuplicateMixCoalesces instead).
func TestCoalescingEndToEnd(t *testing.T) {
	s, ts, fp := newTestServer(t, Options{})
	cfg := fastConfig()
	key, err := requestKey("explain", fp, normalizeConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.forestFor(fp)
	if err != nil {
		t.Fatal(err)
	}
	c := &call{done: make(chan struct{})}
	s.coal.mu.Lock()
	s.coal.calls[key] = c
	s.coal.mu.Unlock()
	go func() {
		time.Sleep(30 * time.Millisecond) // request joins while this "computation" runs
		c.val, c.err = s.eng.ExplainCtx(context.Background(), f, normalizeConfig(cfg))
		s.coal.mu.Lock()
		delete(s.coal.calls, key)
		s.coal.mu.Unlock()
		close(c.done)
	}()

	resp, payload := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", "co",
		explainRequest{Fingerprint: fp, Config: cfg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	var out explainResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Coalesced {
		t.Fatal("response not marked coalesced")
	}
	st := s.Stats()
	if st.CoalesceHits != 1 || st.Tenants["co"].CoalesceHits != 1 {
		t.Fatalf("coalesce hit not accounted: %+v", st)
	}
}
