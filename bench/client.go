package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"valentine/internal/server"
	"valentine/internal/table"
)

// Operation kinds of the serving workloads.
const (
	opSearch  = "search"
	opUpsert  = "upsert"
	opReplace = "replace"
	opDelete  = "delete"
	opMatch   = "match"
)

// isWrite reports whether an op kind mutates the catalog.
func isWrite(kind string) bool { return kind == opUpsert || kind == opReplace || kind == opDelete }

// httpOp is one request of a workload, body encoded at set-up so the timed
// phase spends the benchmark's share of the cores on the wire, not on
// building JSON.
type httpOp struct {
	Kind   string
	Method string
	Path   string
	Body   []byte
	// Table is the payload of a write or the query of a search (the traced
	// pass replays it against the shadow catalog); Target is a match's
	// second table; Name is the table a write names.
	Table, Target *table.Table
	Mode          string
	Name          string
}

// client sends httpOps to one server with at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx answer. Refused reports the shed/not-ready/timeout
// statuses (429, 503, 504), which count as failures like any other.
type statusError struct {
	Code int
	Msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.Code, e.Msg) }

// do sends one op and decodes the answer into out (nil: discard).
func (c *client) do(ctx context.Context, op *httpOp, out any) error {
	return c.request(ctx, op.Method, op.Path, op.Body, out)
}

func (c *client) request(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return &statusError{resp.StatusCode, string(bytes.TrimSpace(msg))}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// waitHealthy polls /v1/healthz until the server says ok or degraded.
func (c *client) waitHealthy(ctx context.Context) error {
	for {
		var h server.HealthResponse
		err := c.request(ctx, http.MethodGet, "/v1/healthz", nil, &h)
		if err == nil && (h.Status == "ok" || h.Status == "degraded") {
			return nil
		}
		if h.Status == "failed" {
			return fmt.Errorf("server failed recovery: %s", h.Error)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server not healthy: %w (last: %v)", ctx.Err(), err)
		case <-time.After(time.Millisecond):
		}
	}
}

func (c *client) stats(ctx context.Context) (server.StatsResponse, error) {
	var st server.StatsResponse
	err := c.request(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

func wireTable(t *table.Table) server.TableJSON {
	w := server.TableJSON{Name: t.Name, Columns: make([]server.ColumnJSON, len(t.Columns))}
	for i := range t.Columns {
		w.Columns[i] = server.ColumnJSON{Name: t.Columns[i].Name, Values: t.Columns[i].Values}
	}
	return w
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of strings and numbers always marshal
	}
	return b
}

func searchOp(q *table.Table, mode string, k int) *httpOp {
	return &httpOp{
		Kind: opSearch, Method: http.MethodPost, Path: "/v1/search",
		Body:  mustJSON(server.SearchRequest{Table: wireTable(q), Mode: mode, K: k}),
		Table: q, Mode: mode,
	}
}

func upsertOp(kind string, t *table.Table) *httpOp {
	return &httpOp{
		Kind: kind, Method: http.MethodPut, Path: "/v1/tables/" + t.Name,
		Body:  mustJSON(server.UpsertRequest{Columns: wireTable(t).Columns}),
		Table: t, Name: t.Name,
	}
}

func deleteOp(name string) *httpOp {
	return &httpOp{Kind: opDelete, Method: http.MethodDelete, Path: "/v1/tables/" + name, Name: name}
}

// matchMethod and matchTop are the /v1/match ops' shape: the serving default
// method (through its cascade, if it has one), top 10.
const (
	matchMethod = "coma-instance"
	matchTop    = 10
)

func matchOp(src, tgt *table.Table) *httpOp {
	return &httpOp{
		Kind: opMatch, Method: http.MethodPost, Path: "/v1/match",
		Body:  mustJSON(server.MatchRequest{Source: wireTable(src), Target: wireTable(tgt), Method: matchMethod, Top: matchTop}),
		Table: src, Target: tgt,
	}
}
