package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/workload"
)

// Headers the client sets so that handler spans can name their caller.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// ontimeLimit is the submit latency the service aims to stay under.
const ontimeLimit = 100 * time.Millisecond

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits until Serve has returned.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// newClient returns a client that holds at most one connection, so the
// number of senders bounds the connections the load uses.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// call posts (or, with a nil body, gets) url and returns status and body.
func call(c *http.Client, url string, body []byte, req int64, parent int) (int, []byte, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	hr.Header.Set(hdrSpan, strconv.Itoa(parent))
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// healthy checks that the service at url answers its health check.
func healthy(url string) error {
	c := newClient()
	defer c.CloseIdleConnections()
	status, _, err := call(c, url+"/healthz", nil, -1, -1)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("health check: status %d, %v", status, err)
	}
	return nil
}

// sample is one reservation as the client saw it.
type sample struct {
	req             workload.Request
	due, sent, done time.Time
	status          int // 0 when the call failed below HTTP
	acked           bool
	epochDue        bool
	shard           string
}

func (s sample) ok() bool                { return s.acked }
func (s sample) latency() time.Duration  { return s.done.Sub(s.due) }
func (s sample) ontime() bool            { return s.ok() && s.latency() <= ontimeLimit }
func (s sample) lateness() time.Duration { return s.sent.Sub(s.due) }

// openLoop submits reqs on a fixed schedule: reqs[i] is due at
// start + i/rate whatever happened to earlier ones, because reservations
// come from independent users. Each of `senders` goroutines owns one
// connection, takes the next request when free and waits for its due
// time if early. Latency is measured from the due time, so a stall in
// the service counts against every request due while it lasted.
// onAck runs on the sending goroutine after every reply.
func openLoop(url string, reqs []workload.Request, rate float64, senders int, tr *tracer, onAck func(sample)) []sample {
	out := make([]sample, len(reqs))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := sample{req: reqs[i], due: start.Add(time.Duration(i) * interval)}
				time.Sleep(time.Until(s.due))
				at := reqs[i].Start
				body, _ := json.Marshal(server.ReservationRequest{User: reqs[i].User, Video: reqs[i].Video, Start: reqs[i].Start, At: &at})
				s.sent = time.Now()
				sp := tr.begin(int64(i), -1, "http.request")
				status, reply, err := call(c, url+"/v1/reservations", body, int64(i), sp)
				tr.end(sp)
				s.done = time.Now()
				if err == nil {
					s.status = status
					var ack struct {
						EpochDue bool   `json:"epoch_due"`
						Shard    string `json:"shard"`
					}
					if json.Unmarshal(reply, &ack) == nil {
						s.acked = status == http.StatusAccepted
						s.epochDue, s.shard = ack.EpochDue, ack.Shard
					}
				}
				out[i] = s
				if onAck != nil {
					onAck(s)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// timing is one handled request as a handler wrapper or the advancer
// saw it. ok means the reply was a success with a body; a 200 with no
// body is what a handler leaves behind when it fails to encode its
// reply, and the caller cannot use it.
type timing struct {
	start, end time.Time
	status     int
	ok         bool
}

func (t timing) ms() float64 { return ms(t.end.Sub(t.start)) }

// op is one intake operation a service committed, in the order the
// service's handler finished them: a reservation or an advance.
type op struct {
	advance bool
	at      simtime.Time
	req     workload.Request
	to      simtime.Time
}

// probe wraps a server or gateway handler. It always times reservations,
// advances and batch solves; when tracing it also records a span per
// request ("<name>.reservations", "<name>.advance", ...), linked to the
// caller's span, and the committed intake operations in order for the
// replay.
type probe struct {
	name string // "server" or "gateway"
	next http.Handler
	tr   *tracer
	// links, when set, connects gateway spans to shard spans: a gateway
	// forwards a reservation without the client's headers, so the two
	// sides meet on the reservation's content.
	links *linkTable

	mu       sync.Mutex
	submits  []timing
	advances []timing
	solves   []timing
	ops      []op
}

type statusWriter struct {
	http.ResponseWriter
	status  int
	written int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.written += n
	return n, err
}

func (p *probe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind := strings.TrimPrefix(r.URL.Path, "/v1/")
	var body []byte
	var rr server.ReservationRequest
	req, parent := int64(-1), -1
	if p.tr != nil {
		body, _ = io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if kind == "reservations" {
			_ = json.Unmarshal(body, &rr) // a malformed body is the handler's to reject
		}
		if h := r.Header.Get(hdrReq); h != "" {
			req, _ = strconv.ParseInt(h, 10, 64)
			parent, _ = strconv.Atoi(r.Header.Get(hdrSpan))
		} else if p.links != nil && kind == "reservations" {
			req, parent = p.links.take(rr)
		}
	}
	sp := p.tr.begin(req, parent, p.name+"."+kind)
	if p.links != nil && kind == "reservations" && r.Header.Get(hdrReq) != "" {
		p.links.put(rr, req, sp)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	p.next.ServeHTTP(sw, r)
	t := timing{start: t0, end: time.Now(), status: sw.status}
	t.ok = t.status/100 == 2 && sw.written > 0
	p.tr.end(sp)

	p.mu.Lock()
	defer p.mu.Unlock()
	switch kind {
	case "reservations":
		p.submits = append(p.submits, t)
		if p.tr != nil && t.status == http.StatusAccepted {
			at := rr.Start
			if rr.At != nil {
				at = *rr.At
			}
			p.ops = append(p.ops, op{at: at, req: reservationKey(rr)})
		}
	case "advance":
		p.advances = append(p.advances, t)
		var ar server.AdvanceRequest
		// The epoch committed even when its reply could not be encoded.
		if p.tr != nil && t.status == http.StatusOK && json.Unmarshal(body, &ar) == nil {
			p.ops = append(p.ops, op{advance: true, to: ar.To})
		}
	case "schedule":
		p.solves = append(p.solves, t)
	}
}

// snapshot returns copies of what the probe recorded so far.
func (p *probe) snapshot() (submits, advances, solves []timing, ops []op) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]timing(nil), p.submits...), append([]timing(nil), p.advances...),
		append([]timing(nil), p.solves...), append([]op(nil), p.ops...)
}

// linkTable pairs a gateway's handler span with the shard handler span
// of the same reservation.
type linkTable struct {
	mu sync.Mutex
	m  map[workload.Request][][2]int64
}

func newLinkTable() *linkTable { return &linkTable{m: map[workload.Request][][2]int64{}} }

func reservationKey(rr server.ReservationRequest) workload.Request {
	return workload.Request{User: rr.User, Video: rr.Video, Start: rr.Start}
}

func (l *linkTable) put(rr server.ReservationRequest, req int64, sp int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m[reservationKey(rr)] = append(l.m[reservationKey(rr)], [2]int64{req, int64(sp)})
}

func (l *linkTable) take(rr server.ReservationRequest) (int64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	q := l.m[reservationKey(rr)]
	if len(q) == 0 {
		return -1, -1
	}
	l.m[reservationKey(rr)] = q[1:]
	return q[0][0], int(q[0][1])
}

// advancer closes epochs the way loadgen's does: replies that report an
// epoch due kick it, kicks that arrive during an advance coalesce into
// one, and each advance targets the newest acknowledged arrival minus lag.
type advancer struct {
	url  string
	lag  simtime.Duration
	c    *http.Client
	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	maxAt atomic.Int64
	// lastTo and samples are touched only by the loop goroutine until
	// done is closed.
	lastTo  simtime.Time
	samples []timing
}

func newAdvancer(url string, lag simtime.Duration) *advancer {
	a := &advancer{url: url, lag: lag, c: newClient(),
		kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go a.loop()
	return a
}

func (a *advancer) observe(s sample) {
	if !s.ok() {
		return
	}
	for {
		cur := a.maxAt.Load()
		if int64(s.req.Start) <= cur || a.maxAt.CompareAndSwap(cur, int64(s.req.Start)) {
			break
		}
	}
	if s.epochDue {
		select {
		case a.kick <- struct{}{}:
		default: // an advance is already due; it will see this arrival
		}
	}
}

func (a *advancer) loop() {
	defer close(a.done)
	for {
		select {
		case <-a.kick:
			a.advance(false)
		case <-a.stop:
			return
		}
	}
}

// advance posts one advance; final forces it even when the target has
// not moved, so that the pending intake is planned.
func (a *advancer) advance(final bool) error {
	to := simtime.Time(a.maxAt.Load()).Add(-a.lag)
	if to <= a.lastTo && !final {
		return nil
	}
	to = max(to, a.lastTo)
	body, _ := json.Marshal(server.AdvanceRequest{To: to})
	t0 := time.Now()
	status, reply, err := call(a.c, a.url+"/v1/advance", body, -1, -1)
	var res struct {
		Epoch *int `json:"epoch"`
	}
	t := timing{start: t0, end: time.Now(), status: status}
	t.ok = err == nil && status == http.StatusOK && json.Unmarshal(reply, &res) == nil && res.Epoch != nil
	if !final {
		a.samples = append(a.samples, t)
	}
	if err != nil {
		return err
	}
	if !t.ok {
		return fmt.Errorf("advance to %v: status %d: %.200q", to, status, reply)
	}
	a.lastTo = to
	return nil
}

// finish stops the loop and makes the final advance.
func (a *advancer) finish() error {
	close(a.stop)
	<-a.done
	defer a.c.CloseIdleConnections()
	return a.advance(true)
}
