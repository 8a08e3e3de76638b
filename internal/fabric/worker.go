package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// JoinOnce enrolls (or heartbeats) selfURL with the coordinator at
// coordinatorURL, returning the coordinator's acknowledgment.
func JoinOnce(ctx context.Context, client *http.Client, coordinatorURL, selfURL string) (JoinResponse, error) {
	resp, err := postJSON(ctx, client, "coordinator",
		strings.TrimRight(coordinatorURL, "/")+"/v1/fabric/workers", JoinRequest{URL: selfURL})
	if err != nil {
		return JoinResponse{}, err
	}
	defer resp.Body.Close()
	var jr JoinResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&jr); err != nil {
		return JoinResponse{}, fmt.Errorf("fabric: decoding join ack: %w", err)
	}
	return jr, nil
}

// JoinLoop keeps selfURL enrolled with the coordinator until ctx ends:
// an immediate join, then heartbeats at the coordinator's advertised
// cadence (fallback: a third of the default TTL). notify, when set,
// observes enrollment transitions — cnfetd flips its readiness endpoint
// on them — and is called for every attempt's outcome change plus the
// initial attempt.
func JoinLoop(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, notify func(joined bool, err error)) {
	interval := DefaultHeartbeatTTL / 3
	joined := false
	first := true
	for {
		attemptCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		ack, err := JoinOnce(attemptCtx, client, coordinatorURL, selfURL)
		cancel()
		if err == nil {
			if hb := time.Duration(ack.HeartbeatSeconds * float64(time.Second)); hb > 0 {
				interval = hb
			}
			if (!joined || first) && notify != nil {
				notify(true, nil)
			}
			joined = true
		} else {
			if (joined || first) && notify != nil {
				notify(false, err)
			}
			joined = false
		}
		first = false
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}
