package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/trace"
)

// QueryRequest is the wire form of one analytical query. Exactly one
// selection form is used: los/his (hyper-rectangle) or center/radius
// (hyper-sphere).
type QueryRequest struct {
	// Tenant identifies the client for admission control; the X-Tenant
	// header takes precedence. Empty means the shared default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Agg is one of count, sum, avg, var, corr, slope.
	Agg string `json:"agg"`
	// Los/His bound a hyper-rectangle selection.
	Los []float64 `json:"los,omitempty"`
	His []float64 `json:"his,omitempty"`
	// Center/Radius define a hyper-sphere selection.
	Center []float64 `json:"center,omitempty"`
	Radius float64   `json:"radius,omitempty"`
	// Col is the aggregate's primary column, Col2 the second column for
	// corr/slope.
	Col  int `json:"col,omitempty"`
	Col2 int `json:"col2,omitempty"`
	// DeadlineMS is the absolute wall-clock deadline (Unix milliseconds)
	// after which the caller stops waiting; 0 means none. Forwarding and
	// scatter layers propagate it so downstream holders can refuse
	// dead-on-arrival work instead of computing answers nobody reads.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CostJSON summarises the virtual cost charged for an answer.
type CostJSON struct {
	TimeNS   int64 `json:"time_ns"`
	CPUNS    int64 `json:"cpu_ns"`
	RowsRead int64 `json:"rows_read"`
	BytesLAN int64 `json:"bytes_lan"`
	Nodes    int   `json:"nodes_touched"`
}

// ToCostJSON converts a virtual cost to its wire form (shared with the
// distributed node API in internal/dist).
func ToCostJSON(c metrics.Cost) CostJSON { return costJSON(c) }

func costJSON(c metrics.Cost) CostJSON {
	return CostJSON{
		TimeNS:   c.Time.Nanoseconds(),
		CPUNS:    c.CPUTime.Nanoseconds(),
		RowsRead: c.RowsRead,
		BytesLAN: c.BytesLAN,
		Nodes:    c.NodesTouched,
	}
}

// QueryResponse is the wire form of an answer.
type QueryResponse struct {
	Value     float64 `json:"value"`
	Predicted bool    `json:"predicted"`
	EstError  float64 `json:"est_error"`
	Quantum   int     `json:"quantum"`
	// StaleRows is the freshness signal of a predicted answer: how many
	// ingested rows the answering quantum has absorbed since its models
	// last refreshed (0 = fully fresh, and always 0 for exact answers).
	StaleRows int      `json:"stale_rows,omitempty"`
	Cost      CostJSON `json:"cost"`
	// TraceID/Trace carry the inline span tree when the query was
	// forced-traced with ?trace=1. The same tree is retrievable later
	// via GET /v1/debug/trace/<trace_id> while it stays in the ring.
	TraceID string          `json:"trace_id,omitempty"`
	Trace   *trace.WireSpan `json:"trace,omitempty"`
	// Degraded marks a best-effort answer computed from a strict subset
	// of the partition space (some holders were unreachable); Coverage
	// is the contributing fraction (0 < coverage < 1). Absent on full
	// answers.
	Degraded bool    `json:"degraded,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
}

// StatsResponse combines agent lifetime counters with serving-layer
// health.
type StatsResponse struct {
	Agent   core.Stats            `json:"agent"`
	Serving metrics.ServeSnapshot `json:"serving"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ParseAgg maps a wire aggregate name to the query model's kind.
func ParseAgg(s string) (query.Agg, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "count":
		return query.Count, nil
	case "sum":
		return query.Sum, nil
	case "avg", "mean", "average":
		return query.Avg, nil
	case "var", "variance":
		return query.Var, nil
	case "corr", "correlation":
		return query.Corr, nil
	case "slope", "regslope":
		return query.RegSlope, nil
	default:
		return 0, fmt.Errorf("%w: unknown agg %q", query.ErrBadQuery, s)
	}
}

// Query converts the request to the internal query model.
func (r QueryRequest) Query() (query.Query, error) {
	agg, err := ParseAgg(r.Agg)
	if err != nil {
		return query.Query{}, err
	}
	q := query.Query{Aggregate: agg, Col: r.Col, Col2: r.Col2}
	if r.Radius > 0 {
		q.Select = query.Selection{Center: r.Center, Radius: r.Radius}
	} else {
		q.Select = query.Selection{Los: r.Los, His: r.His}
	}
	if err := q.Validate(); err != nil {
		return query.Query{}, err
	}
	if r.DeadlineMS > 0 {
		q.Deadline = time.UnixMilli(r.DeadlineMS)
	}
	return q, nil
}

// Server is the HTTP/JSON front-end over a Scheduler. Routes:
//
//	POST /v1/query             {tenant?, agg, los/his | center/radius, col?, col2?}
//	                           ?trace=1 forces a trace, inlined in the answer
//
// plus the inspection routes (MountInspect) and the observability
// routes of the pool's Plane (Plane.Mount).
//
// Overload maps to 429, malformed queries to 400, oracle failures
// to 502.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer builds the front-end. exp may be nil to disable /v1/explain.
// The observability routes come from the pool's Plane; a pool without
// one gets a default plane here.
func NewServer(sched *Scheduler, exp *explain.Engine) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	MountInspect(s.mux, sched, exp)
	plane := sched.pool.plane
	if plane == nil {
		plane = NewPlane(sched.pool, PlaneConfig{Node: "local"})
	}
	plane.Mount(s.mux)
	return s
}

// MountInspect serves, on mux, the routes that read a scheduler's
// agent without answering a query:
//
//	POST /v1/explain   a /v1/query body; piecewise-linear answer explanation
//	GET  /v1/stats     agent + serving counters (StatsResponse)
//
// exp may be nil, and /v1/explain then answers 501. Server mounts them
// beside its /v1/query, a cluster member (internal/dist) beside its own.
func MountInspect(mux *http.ServeMux, sched *Scheduler, exp *explain.Engine) {
	in := &inspect{sched: sched, explain: exp}
	mux.HandleFunc("POST /v1/explain", in.handleExplain)
	mux.HandleFunc("GET /v1/stats", in.handleStats)
}

// inspect holds what the inspection routes read.
type inspect struct {
	sched   *Scheduler
	explain *explain.Engine
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler returns the underlying scheduler (for shutdown and stats).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// WriteJSON writes v as a JSON response with the given status code.
// Exported so sibling HTTP front-ends (the distributed node API in
// internal/dist) share one wire convention.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrDeadline is returned when a request's propagated deadline has
// already passed: the holder refuses dead-on-arrival work instead of
// computing an answer whose caller stopped waiting. Mapped to HTTP 504
// — terminal, never retried (a retry would arrive even deader).
var ErrDeadline = errors.New("serve: deadline exceeded")

// WriteError maps err onto the serving layer's status-code convention
// (400 malformed, 429 overload, 503 closed, 502 oracle failure, 504
// dead-on-arrival deadline) and writes it as a JSON error body.
func WriteError(w http.ResponseWriter, err error) { writeError(w, err) }

func writeJSON(w http.ResponseWriter, code int, v any) { WriteJSON(w, code, v) }

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, query.ErrBadQuery):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantThrottled):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, explain.ErrUntrusted):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrNoOracle):
		code = http.StatusBadGateway
	case errors.Is(err, ErrDeadline):
		code = http.StatusGatewayTimeout
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// decode parses the request body into a query plus tenant id.
func decode(r *http.Request) (query.Query, string, error) {
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return query.Query{}, "", fmt.Errorf("%w: %v", query.ErrBadQuery, err)
	}
	q, err := req.Query()
	if err != nil {
		return query.Query{}, "", err
	}
	tenant := req.Tenant
	if h := r.Header.Get("X-Tenant"); h != "" {
		tenant = h
	}
	return q, tenant, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, tenant, err := decode(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var tr *trace.Trace
	if TraceRequested(r) {
		tr = s.sched.pool.Tracer().Force("query")
	}
	ans, err := s.sched.AnswerTraced(tenant, q, tr)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := QueryResponse{
		Value:     ans.Value,
		Predicted: ans.Predicted,
		EstError:  ans.EstError,
		Quantum:   ans.Quantum,
		StaleRows: ans.FreshRows,
		Cost:      costJSON(ans.Cost),
		Degraded:  ans.Degraded,
		Coverage:  ans.Coverage,
	}
	if tr != nil {
		resp.TraceID = tr.ID()
		resp.Trace = tr.Wire()
	}
	writeJSON(w, http.StatusOK, resp)
}

// TraceRequested reports whether the request asked for a forced inline
// trace (?trace=1). Most requests carry no query string: those are
// answered without building Query()'s url.Values map.
func TraceRequested(r *http.Request) bool {
	return r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1"
}

func (s *inspect) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.explain == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "explanations disabled"})
		return
	}
	q, tenant, err := decode(r)
	if err != nil {
		writeError(w, err)
		return
	}
	// Explanations run ~dozens of model probes, so they go through the
	// same admission gate as queries — no endpoint
	// bypasses overload protection. A successful explanation is pure
	// model work and is recorded as a predicted observation.
	v, err := s.sched.Do(tenant, func() (any, error) {
		start := time.Now()
		ex, err := s.explain.Explain(q)
		if err != nil {
			s.sched.pool.rec.Error()
			return nil, err
		}
		s.sched.pool.rec.ObservePath(time.Since(start), metrics.PathModel)
		return ex, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *inspect) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Agent:   s.sched.pool.agent.Stats(),
		Serving: s.sched.pool.rec.Snapshot(),
	})
}

// RunHTTP serves h on addr until ctx is cancelled, then shuts down
// gracefully (see RunListener). onStopped runs once serving has ended
// either way — cmd/seaserve passes its node's Close here.
func RunHTTP(ctx context.Context, addr string, h http.Handler, drain time.Duration, onStopped func()) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		if onStopped != nil {
			onStopped()
		}
		return err
	}
	return RunListener(ctx, l, h, drain, onStopped)
}

// RunListener serves h on l until ctx is cancelled, then shuts down
// gracefully: the listener stops accepting, in-flight requests get up to
// drain to finish (http.Server.Shutdown), then onStopped (if any) runs.
// A clean shutdown returns nil. Both serving front-ends — this package's
// Server and internal/dist's node API — share this one drain path.
func RunListener(ctx context.Context, l net.Listener, h http.Handler, drain time.Duration, onStopped func()) error {
	if drain <= 0 {
		drain = 10 * time.Second
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	var err error
	select {
	case err = <-errCh:
		if onStopped != nil {
			onStopped()
		}
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	<-errCh // Serve has returned http.ErrServerClosed
	if onStopped != nil {
		onStopped()
	}
	return err
}
