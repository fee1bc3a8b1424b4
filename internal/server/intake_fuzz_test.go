package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/vodsim/vsp/internal/testutil"
)

// intakeSeeds are valid and truncated bodies for the two intake
// endpoints; each fuzz input is posted to both.
var intakeSeeds = []string{
	`{"user":0,"video":0,"start":3600}`,
	`{"user":2,"video":0,"start":7200,"at":60}`,
	`{"to":7200}`,
	`{"to":0}`,
	`{"user":0,"video":0,"sta`,
	`{"to":`,
	`{"user":-1,"video":99,"start":-5}`,
	`{"to":-1}`,
	`{"to":1e30}`,
	`{"at":null}`,
	`null`,
	`[]`,
	``,
}

// checkReply fails unless rec is a 2xx, 4xx or 5xx other than 500 that
// carries a JSON body. A 500 means a handler panicked or a solve broke on
// input the handler should have rejected.
func checkReply(t *testing.T, path string, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	if c := rec.Code / 100; c != 2 && c != 4 && c != 5 || rec.Code == http.StatusInternalServerError {
		t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s %q: status %d with non-JSON body %q", path, body, rec.Code, rec.Body.Bytes())
	}
}

// FuzzReservationDecode posts arbitrary bodies to POST /v1/reservations
// and then POST /v1/advance on a fresh server: whatever arrives, every
// reply must be a well-formed JSON answer and no handler may panic.
func FuzzReservationDecode(f *testing.F) {
	fig, err := testutil.NewFig2()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range intakeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(fig.Model)
		defer srv.Close()
		for _, path := range []string{"/v1/reservations", "/v1/advance"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			checkReply(t, path, body, rec)
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
