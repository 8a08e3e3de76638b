package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"cnfetdk/internal/sweep"
)

// Client is the coordinator's sweep surface as a Go API: RunSweep
// ships a spec to POST /v1/fabric/sweeps, consumes the NDJSON progress
// stream, and returns the merged report. It satisfies the same
// contract as a local sweep.Run — canonical report bytes are identical
// to a single-process run of the same spec — so callers that accept a
// "run this sweep" dependency (the co-optimizer, the sweep CLI) switch
// between local and distributed execution without caring which they
// got.
type Client struct {
	// URL is the coordinator base URL (e.g. "http://fab:9090"); the
	// /v1/fabric/sweeps path is appended.
	URL string
	// HTTP overrides the transport (nil selects http.DefaultClient).
	HTTP *http.Client
	// OnLine, when set, observes every stream line as it arrives —
	// point completions, lease events, and the final report line.
	OnLine func(StreamLine)
}

// RunSweep runs one sweep on the fabric under ctx (cancelling ctx
// aborts the coordinator run: the streamed request's context cancels
// every in-flight lease).
func (c *Client) RunSweep(ctx context.Context, spec sweep.Spec) (*sweep.Report, error) {
	resp, err := postJSON(ctx, c.HTTP, "coordinator", strings.TrimRight(c.URL, "/")+"/v1/fabric/sweeps", spec)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	done, err := readStream(resp.Body, c.OnLine)
	switch {
	case err != nil:
		return nil, fmt.Errorf("fabric: reading stream: %w", err)
	case done != nil && done.Error != "":
		// A failed sweep may still carry a salvaged partial report
		// (Partial flag set) next to the error; return both so callers
		// can triage what did complete.
		return done.Report, fmt.Errorf("fabric: sweep failed: %s", done.Error)
	case done == nil || done.Report == nil:
		return nil, fmt.Errorf("fabric: stream ended without a report")
	}
	return done.Report, nil
}

// maxLineBytes caps one stream line: the final line carries a whole
// report, and reports can carry liberty/GDS payloads.
const maxLineBytes = 64 << 20

// readStream reads a sweep stream — a worker's /v1/sweeps?stream=ndjson
// or a coordinator's /v1/fabric/sweeps — one StreamLine per line. It
// hands every non-blank line to fn (when set) up to and including the
// first Done line, and returns that line without reading further. A
// stream that ends before its Done line returns nil and no error.
func readStream(r io.Reader, fn func(StreamLine)) (*StreamLine, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad stream line: %w", err)
		}
		if fn != nil {
			fn(line)
		}
		if line.Done {
			return &line, nil
		}
	}
	return nil, sc.Err()
}

// postJSON POSTs v as JSON to url and returns the response once it
// answers 200; the caller closes its body. hc nil selects
// http.DefaultClient. Errors name peer; a non-200 one carries the first
// 4 KiB of the error body.
func postJSON(ctx context.Context, hc *http.Client, peer, url string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fabric: reaching %s: %w", peer, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return nil, fmt.Errorf("fabric: %s answered %d: %s", peer, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}
