package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/query"
	"repro/internal/serve"
)

// This file is the wire envelope: the cross-cutting fields every
// node-to-node request and response carries in HTTP headers, not in its
// JSON body. One client function (call) writes them and reads the
// callee's epoch back; one server wrapper (Node.Handler) reads them,
// refuses a malformed envelope with 400 and a dead-on-arrival deadline
// with 504, notes the caller's epoch, and stamps its own on the
// response. A request without the headers is a valid bare request: no
// epoch to compare, no deadline, no trace, zero hops.
const (
	// hdrEpoch is the sender's membership epoch, on requests and
	// responses alike: a receiver that sees a newer one pulls the view.
	hdrEpoch = "X-Sea-Epoch"
	// hdrDeadline is the caller's absolute deadline in Unix
	// milliseconds: receivers refuse work it has already passed, and
	// every further hop is bounded by it.
	hdrDeadline = "X-Sea-Deadline"
	// hdrTrace asks the receiver to record a span tree for its side of
	// the call and return it in the body, for the caller to graft.
	hdrTrace = "X-Sea-Trace"
	// hdrHops is the forward hop count. A forwarded query is always
	// answered where it lands. A forwarded ingest may hop once more: a
	// membership change can briefly leave two nodes disagreeing about a
	// partition's primary, and at maxIngestHops the receiver stops
	// forwarding.
	hdrHops = "X-Sea-Forwarded"
)

// envelope is the parsed header set; the zero value is a bare request.
type envelope struct {
	epoch    int64 // 0: not stated
	deadline int64 // Unix ms; 0: none
	trace    bool
	hops     int
}

// write sets e's non-zero fields as headers.
func (e envelope) write(h http.Header) {
	if e.epoch > 0 {
		h.Set(hdrEpoch, strconv.FormatInt(e.epoch, 10))
	}
	if e.deadline > 0 {
		h.Set(hdrDeadline, strconv.FormatInt(e.deadline, 10))
	}
	if e.trace {
		h.Set(hdrTrace, "1")
	}
	if e.hops > 0 {
		h.Set(hdrHops, strconv.Itoa(e.hops))
	}
}

// readEnvelope parses the envelope headers. An absent header reads as
// its zero value; a present one that is not a non-negative integer (a
// boolean, for the trace flag) is an error.
func readEnvelope(h http.Header) (envelope, error) {
	var e envelope
	var err error
	if e.epoch, err = headerInt(h, hdrEpoch, 64); err != nil {
		return envelope{}, err
	}
	if e.deadline, err = headerInt(h, hdrDeadline, 64); err != nil {
		return envelope{}, err
	}
	hops, err := headerInt(h, hdrHops, 32)
	if err != nil {
		return envelope{}, err
	}
	e.hops = int(hops)
	if v := h.Get(hdrTrace); v != "" {
		if e.trace, err = strconv.ParseBool(v); err != nil {
			return envelope{}, fmt.Errorf("header %s: want a boolean, got %q", hdrTrace, v)
		}
	}
	return e, nil
}

// headerInt parses header name as a non-negative integer of the given
// bit size (absent: 0).
func headerInt(h http.Header, name string, bits int) (int64, error) {
	v := h.Get(name)
	if v == "" {
		return 0, nil
	}
	x, err := strconv.ParseInt(v, 10, bits)
	if err != nil || x < 0 {
		return 0, fmt.Errorf("header %s: want a non-negative integer, got %q", name, v)
	}
	return x, nil
}

// until returns e bound by the earlier of its own deadline and ms (Unix
// milliseconds; <= 0 is none): how a client-set body deadline folds
// into the envelope at the entry node.
func (e envelope) until(ms int64) envelope {
	if ms > 0 && (e.deadline == 0 || ms < e.deadline) {
		e.deadline = ms
	}
	return e
}

// deadlineTime is e's deadline as a time (zero when none).
func (e envelope) deadlineTime() time.Time {
	if e.deadline == 0 {
		return time.Time{}
	}
	return time.UnixMilli(e.deadline)
}

// expired reports a deadline that has already passed.
func (e envelope) expired() bool {
	return e.deadline > 0 && time.Now().UnixMilli() >= e.deadline
}

// envKey is the request-context key of the envelope Handler parsed.
type envKey struct{}

// envelopeOf returns the envelope Handler parsed for r.
func envelopeOf(r *http.Request) envelope {
	e, _ := r.Context().Value(envKey{}).(envelope)
	return e
}

// Handler returns the node's HTTP API behind the envelope wrapper every
// request passes through. It counts data-plane requests (DataRPCs),
// stamps the node's epoch on the response before the handler runs — so
// a response never carries an epoch newer than the view its body was
// built under — refuses a malformed envelope (400) or a passed deadline
// (504) before any work, and notes the caller's epoch.
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/query", "/v1/partials",
			"/v1/ingest", "/v1/replicate", "/v1/walfetch":
			n.dataRPCs.Add(1)
		}
		w.Header()[hdrEpoch] = n.members().epochHeader
		env, err := readEnvelope(r.Header)
		if err != nil {
			serve.WriteError(w, fmt.Errorf("%w: %v", query.ErrBadQuery, err))
			return
		}
		if env.expired() {
			serve.WriteError(w, serve.ErrDeadline)
			return
		}
		n.noteEpoch(env.epoch)
		if env != (envelope{}) {
			r = r.WithContext(context.WithValue(r.Context(), envKey{}, env))
		}
		n.mux.ServeHTTP(w, r)
	})
}

// Request body limits: row-carrying bodies (ingest, replicate) may be
// large; every other body is small.
const (
	rowsBodyLimit = 16 << 20
	bodyLimit     = 1 << 20
)

// decodeBody reads r's JSON body into v under limit, refusing unknown
// fields — a renamed field must fail loudly, not arrive as a zero
// value. On failure it answers 400 and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		serve.WriteError(w, fmt.Errorf("%w: %v", query.ErrBadQuery, err))
		return false
	}
	return true
}

// reply is what one call learned besides the decoded body.
type reply struct {
	status int   // HTTP status; 0 when no response arrived
	bytes  int64 // request plus response payload bytes
	epoch  int64 // the callee's X-Sea-Epoch; 0 when absent
}

// statusError is a response whose status is neither 200 nor 409. The
// peer answered, so it unwraps to errPeerResponded; msg is the body's
// "error" field.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

func (e *statusError) Unwrap() error { return errPeerResponded }

// maxReplyBytes bounds one response body; partition and agent snapshots
// are the largest.
const maxReplyBytes = 64 << 20

// call runs one JSON round trip: it encodes in (nil: no body) into a
// pooled buffer, sends it with env's headers under a context bounded by
// env's deadline, reads the whole response into a pooled buffer (so the
// body is drained on every path and the keep-alive connection reused),
// and decodes a 200 or 409 reply into out (nil: discard). 409 Conflict
// is a reply, not a failure: the callee answered with its own state (a
// gapped replica's last sequence). Any other status is a *statusError.
func call(ctx context.Context, hc *http.Client, method, url string, env envelope, in, out any) (reply, error) {
	var rep reply
	var body io.Reader
	if in != nil {
		buf := jsonBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		// A body the server answers without reading (past a Go server's
		// 256 KiB discard window) may still be in the transport's hands.
		defer func() {
			if buf.Len() <= 256<<10 {
				jsonBufPool.Put(buf)
			}
		}()
		if err := json.NewEncoder(buf).Encode(in); err != nil {
			return rep, err
		}
		rep.bytes = int64(buf.Len())
		body = bytes.NewReader(buf.Bytes())
	}
	if env.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, env.deadlineTime())
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return rep, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	env.write(req.Header)
	resp, err := hc.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	// A malformed epoch from the callee reads as none.
	rep.epoch, _ = headerInt(resp.Header, hdrEpoch, 64)
	rb := jsonBufPool.Get().(*bytes.Buffer)
	rb.Reset()
	defer jsonBufPool.Put(rb)
	if _, err := rb.ReadFrom(io.LimitReader(resp.Body, maxReplyBytes)); err != nil {
		return rep, err
	}
	rep.bytes += int64(rb.Len())
	if rep.status != http.StatusOK && rep.status != http.StatusConflict {
		var e struct {
			Error string `json:"error"`
		}
		// A body that is not an error object leaves the message empty.
		_ = json.Unmarshal(rb.Bytes(), &e)
		return rep, &statusError{code: rep.status, msg: e.Error}
	}
	if out != nil {
		if err := json.Unmarshal(rb.Bytes(), out); err != nil {
			return rep, fmt.Errorf("%w: undecodable reply: %v", errPeerResponded, err)
		}
	}
	return rep, nil
}

// call is call from this node: the request carries the node's epoch,
// and a newer epoch on the reply kicks a membership refresh.
func (n *Node) call(ctx context.Context, method, url string, env envelope, in, out any) (reply, error) {
	env.epoch = n.epoch()
	rep, err := call(ctx, n.hc, method, url, env, in, out)
	n.noteEpoch(rep.epoch)
	return rep, err
}

// call is call from a client. A reply from a newer epoch refreshes the
// client's view synchronously: by the time the caller's next request
// goes out, routing already reflects the new membership, so a departed
// node receives no further RPCs from this client.
func (c *Client) call(ctx context.Context, method, url string, env envelope, in, out any) (reply, error) {
	rep, err := call(ctx, c.hc, method, url, env, in, out)
	if rep.epoch > c.Epoch() {
		c.refresh(rep.epoch)
	}
	return rep, err
}
