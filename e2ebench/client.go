package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// envelope is one query the clients send: a name for reports and the
// JSON body POSTed to /query.
type envelope struct {
	name string
	body map[string]any
}

// encode returns the JSON body, with "analyze": true when traced.
func (e envelope) encode(analyze bool) []byte {
	m := make(map[string]any, len(e.body)+1)
	for k, v := range e.body {
		m[k] = v
	}
	if analyze {
		m["analyze"] = true
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // the bodies are literals built in this package
	}
	return b
}

// reply is one answered query as the client saw it.
type reply struct {
	status  int
	rows    [][]any
	wallMS  float64       // the trailer's server-side wall time
	latency time.Duration // POST sent until trailer read
}

// client posts envelopes to one server over loopback.
type client struct {
	url  string
	http *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{DisableCompression: true}
	// The timeout only keeps a hung server from outliving the run; the
	// server's own per-query deadline is 30 s.
	return &client{url: "http://" + addr + "/query", http: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// query sends body and reads the NDJSON stream: a columns header, one
// JSON array per row, and a trailer object. Latency runs from just
// before the POST until the trailer has been read.
func (c *client) query(body []byte) (reply, error) {
	start := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, fmt.Errorf("post: %w", err)
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		// A non-200 answer (429 included) is a failure, never retried.
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var header struct {
		Columns []string `json:"columns"`
	}
	if err := dec.Decode(&header); err != nil {
		return r, fmt.Errorf("read header: %w", err)
	}
	for {
		var line json.RawMessage
		if err := dec.Decode(&line); err != nil {
			return r, fmt.Errorf("read stream: %w", err)
		}
		if len(line) > 0 && line[0] == '[' {
			var row []any
			d := json.NewDecoder(bytes.NewReader(line))
			d.UseNumber()
			if err := d.Decode(&row); err != nil {
				return r, fmt.Errorf("decode row: %w", err)
			}
			r.rows = append(r.rows, row)
			continue
		}
		var trailer struct {
			Rows   int     `json:"rows"`
			WallMS float64 `json:"wall_ms"`
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			return r, fmt.Errorf("decode trailer: %w", err)
		}
		r.latency = time.Since(start)
		r.wallMS = trailer.WallMS
		if trailer.Rows != len(r.rows) {
			return r, fmt.Errorf("trailer says %d rows, stream had %d", trailer.Rows, len(r.rows))
		}
		return r, nil
	}
}

// sameRows reports whether got (decoded NDJSON rows) equals want
// (reference rows of string, int64, float64 or nil cells). Numbers
// compare with a relative tolerance, so float sums that the engine
// adds in another order still match.
func sameRows(got, want [][]any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if !sameCell(got[i][j], w) {
				return fmt.Errorf("row %d cell %d: got %v, want %v", i, j, got[i][j], w)
			}
		}
	}
	return nil
}

func sameCell(got, want any) bool {
	switch w := want.(type) {
	case nil:
		return got == nil
	case string:
		g, ok := got.(string)
		return ok && g == w
	case int64:
		return sameNumber(got, float64(w))
	case float64:
		return sameNumber(got, w)
	}
	return false
}

func sameNumber(got any, want float64) bool {
	n, ok := got.(json.Number)
	if !ok {
		return false
	}
	g, err := n.Float64()
	if err != nil {
		return false
	}
	return math.Abs(g-want) <= 1e-9*math.Max(1, math.Max(math.Abs(g), math.Abs(want)))
}
