package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/testutil"
)

// FuzzReservationDecode posts arbitrary bodies to the gateway's POST
// /v1/reservations and then POST /v1/advance, in front of two fresh
// in-memory shards: whatever arrives, every reply must be a 2xx, 4xx or
// 5xx other than 500 carrying a JSON body, and no handler may panic.
func FuzzReservationDecode(f *testing.F) {
	fig, err := testutil.NewFig2()
	if err != nil {
		f.Fatal(err)
	}
	// The shard listeners live for the whole run; each input swaps fresh
	// servers in behind them so inputs do not share state.
	var shards [2]atomic.Pointer[server.Server]
	var cfg Config
	for i := range shards {
		sh := &shards[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sh.Load().ServeHTTP(w, r)
		}))
		f.Cleanup(ts.Close)
		cfg.Shards = append(cfg.Shards, ShardConfig{Primary: ts.URL})
	}
	cfg.Retry = retryhttp.Options{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}

	for _, s := range []string{
		`{"user":0,"video":0,"start":3600}`,
		`{"user":2,"video":0,"start":7200,"at":60}`,
		`{"to":7200}`,
		`{"to":0}`,
		`{"user":0,"video":0,"sta`,
		`{"to":`,
		`{"user":-1,"video":99,"start":-5}`,
		`{"to":-1}`,
		`{"to":1e30}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for i := range shards {
			srv := server.New(fig.Model)
			defer srv.Close()
			shards[i].Store(srv)
		}
		gw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		for _, path := range []string{"/v1/reservations", "/v1/advance"} {
			rec := httptest.NewRecorder()
			gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if c := rec.Code / 100; c != 2 && c != 4 && c != 5 || rec.Code == http.StatusInternalServerError {
				t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %q: status %d with non-JSON body %q", path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}

// A reply value encoding/json refuses must be answered 500 with a JSON
// error body, not the intended status with an empty body.
func TestWriteJSONUnencodableAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"heat": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var reply map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply["error"] == "" {
		t.Fatalf("body %q is not a JSON error (%v)", rec.Body.Bytes(), err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, map[string]int{"pending": 1})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"pending\":1}\n" {
		t.Fatalf("encodable value: status %d body %q", rec.Code, rec.Body.Bytes())
	}
}
