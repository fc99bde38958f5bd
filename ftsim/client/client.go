// Package client is a small Go client for the ftsimd campaign service:
// submit campaign grids, poll status, stream live events, cancel.
// It speaks the wire types in repro/ftsim/api and depends on nothing
// beyond the standard library.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/ftsim/api"
)

// Client talks to one ftsimd daemon. The zero value is not usable;
// set BaseURL (e.g. "http://127.0.0.1:8080").
type Client struct {
	// BaseURL is the daemon's root URL, without a trailing slash.
	BaseURL string
	// Token identifies this client for quota accounting (the
	// X-FTSim-Client header). Empty means the shared default identity.
	Token string
	// AuthToken is the daemon's shared bearer token (the -auth-token it
	// was started with), sent as "Authorization: Bearer <token>". Empty
	// sends no credential, which open daemons accept.
	AuthToken string
	// HTTPClient overrides http.DefaultClient when set. Watch streams
	// indefinitely; a client with a global Timeout will cut streams off.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// setHeaders attaches the client identity and credential.
func (c *Client) setHeaders(req *http.Request) {
	if c.Token != "" {
		req.Header.Set("X-FTSim-Client", c.Token)
	}
	if c.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.AuthToken)
	}
}

// do issues one request and decodes the JSON response into out. Error
// responses decode the service's JSON error body into the returned
// error. Nothing is retried: a request whose response was lost may
// still have been acted on (a Submit may have queued its job), and only
// the caller can tell whether sending it again is safe.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.setHeaders(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return decodeError(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeError turns an HTTP error response into an *api.Error.
func decodeError(code int, body []byte) error {
	e := &api.Error{StatusCode: code}
	if err := json.Unmarshal(body, e); err != nil || e.Message == "" {
		e.Message = strings.TrimSpace(string(body))
		if e.Message == "" {
			e.Message = http.StatusText(code)
		}
	}
	return e
}

// Submit sends a campaign request and returns the queued job.
func (c *Client) Submit(ctx context.Context, req *api.CampaignRequest) (*api.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.SubmitRaw(ctx, body)
}

// SubmitRaw sends a raw JSON submission body — either a full
// api.CampaignRequest or a bare ftsim.Config document (the
// ftsim/testdata golden files are valid bodies as-is).
func (c *Client) SubmitRaw(ctx context.Context, body []byte) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches one job.
func (c *Client) Status(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// List fetches all jobs in submission order.
func (c *Client) List(ctx context.Context) ([]*api.JobStatus, error) {
	var out []*api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel requests cancellation and returns the job's state at that
// moment (a running job finishes cancelling asynchronously).
func (c *Client) Cancel(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health fetches the daemon's liveness + readiness summary. A
// not-ready daemon (draining, degraded) answers 503 with a valid
// Health body; that body is returned with a nil error — readiness
// lives in Health.Status, a non-nil error means the daemon could not
// be asked at all.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	c.setHeaders(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var h api.Health
	if jerr := json.Unmarshal(data, &h); jerr != nil || h.Status == "" {
		return nil, decodeError(resp.StatusCode, data)
	}
	return &h, nil
}

// Version fetches the daemon's build metadata.
func (c *Client) Version(ctx context.Context) (*api.Version, error) {
	var v api.Version
	if err := c.do(ctx, http.MethodGet, "/version", nil, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// ErrWatchStopped is returned (wrapped) by Watch when the callback
// asks to stop; callers that stop early can errors.Is for it.
var ErrWatchStopped = errors.New("watch stopped by callback")

// Watch streams a job's events to fn, starting after lastEventID
// (0 replays everything retained), until the job reaches a terminal
// state (nil), the context ends, the stream drops (io error), or fn
// returns an error. A callback error of ErrWatchStopped stops cleanly.
//
// The final event before a nil return is always the done event
// carrying the terminal api.JobStatus. On a dropped stream, callers
// can reconnect with the last Seq they saw.
func (c *Client) Watch(ctx context.Context, id string, lastEventID int64, fn func(api.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	c.setHeaders(req)
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastEventID, 10))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return decodeError(resp.StatusCode, data)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // id:/event: framing and keepalive comments
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			return fmt.Errorf("client: bad event payload: %w", err)
		}
		if err := fn(ev); err != nil {
			if errors.Is(err, ErrWatchStopped) {
				return nil
			}
			return err
		}
		if ev.Type == api.EventDone {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("client: event stream: %w", err)
	}
	return fmt.Errorf("client: event stream for %s ended before the job finished", id)
}
