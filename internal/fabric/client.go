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
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.URL, "/")+"/v1/fabric/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fabric: reaching coordinator: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("fabric: coordinator answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	var rep *sweep.Report
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("fabric: bad stream line: %w", err)
		}
		if c.OnLine != nil {
			c.OnLine(line)
		}
		if line.Done {
			if line.Error != "" {
				// A failed sweep may still carry a salvaged partial
				// report (Partial flag set) next to the error; return
				// both so callers can triage what did complete.
				return line.Report, fmt.Errorf("fabric: sweep failed: %s", line.Error)
			}
			rep = line.Report
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fabric: reading stream: %w", err)
	}
	if rep == nil {
		return nil, fmt.Errorf("fabric: stream ended without a report")
	}
	return rep, nil
}
