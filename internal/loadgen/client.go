package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Executor performs one generated request and reports the HTTP status it
// drew. Transport failures return err; non-2xx statuses are not errors —
// the runner counts them per code.
type Executor interface {
	Do(ctx context.Context, req Request) (status int, err error)
}

// MetricsSource snapshots the server-side counters a report diffs across
// a run. Implementations that cannot scrape return an error; the runner
// then omits the server section rather than failing the run.
type MetricsSource interface {
	ServerStats(ctx context.Context) (ServerStats, error)
}

// ServerStats are the /metrics series the harness tracks. The counters
// are cumulative totals; reports publish after-minus-before deltas.
type ServerStats struct {
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Shed        uint64 `json:"shed"`
	Coalesced   uint64 `json:"coalesced"`
	PeerHits    uint64 `json:"peer_hits"`
	PeerMisses  uint64 `json:"peer_misses"`
	// PeerMembers is the cpackd_peer_members gauge at scrape time: how
	// many members the instance's ring holds (0 when standalone). The
	// cluster harness waits on it; reports do not diff it.
	PeerMembers uint64 `json:"peer_members"`
}

// HTTPClient is the Executor and MetricsSource for a live cpackd.
type HTTPClient struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8321".
	Base string
	// Client is the underlying HTTP client (nil = a pooled default).
	Client *http.Client
}

// NewHTTPClient returns a client sized for high-concurrency load
// generation against base (connection pool >= any sane -c).
func NewHTTPClient(base string) *HTTPClient {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 512
	tr.MaxIdleConnsPerHost = 512
	return &HTTPClient{
		Base:   strings.TrimRight(base, "/"),
		Client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
	}
}

func (c *HTTPClient) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// Do posts req to its endpoint and drains the response.
func (c *HTTPClient) Do(ctx context.Context, req Request) (int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.Base+"/v1/"+req.Op, bytes.NewReader(req.Body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range req.Header {
		hreq.Header.Set(k, v)
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// ServerStats scrapes GET /metrics for the counters the report tracks.
func (c *HTTPClient) ServerStats(ctx context.Context) (ServerStats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return ServerStats{}, err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return ServerStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return ServerStats{}, fmt.Errorf("loadgen: GET /metrics: status %d", resp.StatusCode)
	}
	return parseServerStats(resp.Body)
}

// parseServerStats extracts the tracked series from a Prometheus text
// exposition. Unknown series are ignored; absent series stay zero (a
// standalone instance exports no peer counters).
func parseServerStats(r io.Reader) (ServerStats, error) {
	var st ServerStats
	targets := map[string]*uint64{
		"cpackd_cache_hits_total":         &st.CacheHits,
		"cpackd_cache_misses_total":       &st.CacheMisses,
		"cpackd_requests_shed_total":      &st.Shed,
		"cpackd_compress_coalesced_total": &st.Coalesced,
		"cpackd_peer_hits_total":          &st.PeerHits,
		"cpackd_peer_misses_total":        &st.PeerMisses,
		"cpackd_peer_members":             &st.PeerMembers,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		dst, ok := targets[name]
		if !ok {
			continue
		}
		// Counters and gauges render as integers; tolerate a float.
		if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil && v >= 0 {
			*dst = uint64(v)
		}
	}
	return st, sc.Err()
}
