package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leonardo"
)

// client is one load-generating HTTP/1.1 keep-alive connection. It is
// a blocking socket driven with plain read/write syscalls from the
// caller's own thread, so a request and its answer involve no other
// goroutine: net/http's client hands each request between three, which
// on a small VM costs more than the server's whole answer and makes
// the measured latency depend on the client's scheduling. Every
// request a client makes, SSE streams included, goes over its one
// connection, so the benchmark opens exactly as many connections as it
// makes clients. It speaks just the HTTP/1.1 leonardod answers with:
// Content-Length or chunked bodies.
type client struct {
	fd   int
	host string
	out  []byte // request scratch
	in   []byte // bytes read, consumed up to off
	off  int
	body []byte // the last chunked response body
}

func newClient(base string) (*client, error) {
	host := strings.TrimPrefix(base, "http://")
	c, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	defer c.Close() // File below holds its own duplicate of the socket
	f, err := c.(*net.TCPConn).File()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		return nil, err
	}
	if err := syscall.SetNonblock(fd, false); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	return &client{fd: fd, host: host}, nil
}

// newClients opens n clients to base.
func newClients(base string, n int) ([]*client, error) {
	var out []*client
	for i := 0; i < n; i++ {
		c, err := newClient(base)
		if err != nil {
			closeClients(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func (c *client) close() { syscall.Close(c.fd) }

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// response is one answer; Body aliases the client's buffers and is
// valid until its next request.
type response struct {
	Status int
	ETag   string
	Body   []byte
}

var errClosed = errors.New("leobench: connection closed mid-response")

// do sends one request and reads its whole response.
func (c *client) do(method, path string, body []byte) (response, error) {
	req := append(c.out[:0], method...)
	req = append(req, ' ')
	req = append(req, path...)
	req = append(req, " HTTP/1.1\r\nHost: "...)
	req = append(req, c.host...)
	if body != nil {
		req = append(req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		req = strconv.AppendInt(req, int64(len(body)), 10)
	}
	req = append(req, "\r\n\r\n"...)
	req = append(req, body...)
	c.out = req
	for len(req) > 0 {
		n, err := syscall.Write(c.fd, req)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return response{}, err
		}
		req = req[n:]
	}

	head, err := c.until("\r\n\r\n")
	if err != nil {
		return response{}, err
	}
	r, clen, chunked, err := parseHead(head)
	if err != nil {
		return response{}, err
	}
	if !chunked {
		r.Body, err = c.take(clen)
		return r, err
	}
	c.body = c.body[:0]
	for {
		line, err := c.until("\r\n")
		if err != nil {
			return response{}, err
		}
		hex, _, _ := strings.Cut(string(line), ";")
		size, err := strconv.ParseInt(strings.TrimSpace(hex), 16, 32)
		if err != nil || size < 0 {
			return response{}, fmt.Errorf("leobench: bad chunk size %q", line)
		}
		if size == 0 {
			// leonardod sends no trailers: the empty line ends the body.
			if _, err := c.until("\r\n"); err != nil {
				return response{}, err
			}
			r.Body = c.body
			return r, nil
		}
		b, err := c.take(int(size) + 2)
		if err != nil {
			return response{}, err
		}
		c.body = append(c.body, b[:size]...)
	}
}

// until consumes the input up to and including sep and returns what
// came before it.
func (c *client) until(sep string) ([]byte, error) {
	for {
		if i := bytes.Index(c.in[c.off:], []byte(sep)); i >= 0 {
			s := c.in[c.off : c.off+i]
			c.off += i + len(sep)
			return s, nil
		}
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
}

// take consumes exactly n bytes of input.
func (c *client) take(n int) ([]byte, error) {
	for len(c.in)-c.off < n {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	s := c.in[c.off : c.off+n]
	c.off += n
	return s, nil
}

// fill reads once more from the socket, first moving the unconsumed
// bytes to the front of the buffer.
func (c *client) fill() error {
	if c.off > 0 {
		n := copy(c.in, c.in[c.off:])
		c.in, c.off = c.in[:n], 0
	}
	if cap(c.in)-len(c.in) < 4096 {
		c.in = append(c.in, make([]byte, 8192)...)[:len(c.in)]
	}
	for {
		n, err := syscall.Read(c.fd, c.in[len(c.in):cap(c.in)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		if n == 0 {
			return errClosed
		}
		c.in = c.in[:len(c.in)+n]
		return nil
	}
}

// parseHead reads the status, ETag, and body framing of a response
// head.
func parseHead(h []byte) (r response, clen int, chunked bool, err error) {
	lines := strings.Split(string(h), "\r\n")
	f := strings.Fields(lines[0])
	if len(f) < 2 || !strings.HasPrefix(f[0], "HTTP/1.") {
		return r, 0, false, fmt.Errorf("leobench: bad status line %q", lines[0])
	}
	if r.Status, err = strconv.Atoi(f[1]); err != nil {
		return r, 0, false, fmt.Errorf("leobench: bad status line %q", lines[0])
	}
	clen = -1
	for _, l := range lines[1:] {
		k, v, ok := strings.Cut(l, ":")
		if !ok {
			continue
		}
		v = strings.TrimSpace(v)
		switch strings.ToLower(k) {
		case "content-length":
			if clen, err = strconv.Atoi(v); err != nil || clen < 0 {
				return r, 0, false, fmt.Errorf("leobench: bad Content-Length %q", v)
			}
		case "transfer-encoding":
			chunked = strings.EqualFold(v, "chunked")
		case "etag":
			r.ETag = v
		}
	}
	if !chunked && clen < 0 {
		return r, 0, false, errors.New("leobench: response has neither Content-Length nor chunked framing")
	}
	return r, clen, chunked, nil
}

// get fetches path and returns the status and body (valid until the
// client's next request).
func (c *client) get(path string) (int, []byte, error) {
	r, err := c.do("GET", path, nil)
	return r.Status, r.Body, err
}

// runInfo is the subset of the daemon's run view the benchmark reads.
type runInfo struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Submitted string `json:"submitted"`
	Started   string `json:"started"`
	Finished  string `json:"finished"`
}

func (c *client) submit(spec leonardo.RunSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	r, err := c.do("POST", "/v1/runs", body)
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if r.Status != 201 {
		return "", fmt.Errorf("submit: status %d: %s", r.Status, bytes.TrimSpace(r.Body))
	}
	var info runInfo
	if err := json.Unmarshal(r.Body, &info); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return info.ID, nil
}

// awaitEnd follows the run's SSE stream, which leonardod ends right
// after the run's end event, and returns when the stream ended.
func (c *client) awaitEnd(id string) (time.Time, error) {
	r, err := c.do("GET", "/v1/runs/"+id+"/events", nil)
	at := time.Now()
	if err != nil {
		return at, fmt.Errorf("events %s: %w", id, err)
	}
	if r.Status != 200 {
		return at, fmt.Errorf("events %s: status %d", id, r.Status)
	}
	if !bytes.Contains(r.Body, []byte("event: end\n")) {
		return at, fmt.Errorf("events %s: stream ended without an end event", id)
	}
	return at, nil
}

func (c *client) info(id string) (runInfo, error) {
	status, body, err := c.get("/v1/runs/" + id)
	if err != nil {
		return runInfo{}, err
	}
	if status != 200 {
		return runInfo{}, fmt.Errorf("run %s: status %d", id, status)
	}
	var info runInfo
	err = json.Unmarshal(body, &info)
	return info, err
}

// snapshot fetches a run's latest durable checkpoint and its ETag.
func (c *client) snapshot(id string) ([]byte, string, error) {
	r, err := c.do("GET", "/v1/runs/"+id+"/snapshot", nil)
	if err != nil {
		return nil, "", err
	}
	if r.Status != 200 {
		return nil, "", fmt.Errorf("snapshot %s: status %d", id, r.Status)
	}
	return append([]byte(nil), r.Body...), r.ETag, nil
}

// scrape reads the daemon's /metrics.
func (c *client) scrape() (map[string]float64, error) {
	status, body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("metrics: status %d", status)
	}
	return parseProm(string(body)), nil
}

// promValue is one series of a Prometheus text exposition (0 if absent).
func promValue(text, series string) float64 { return parseProm(text)[series] }

// parseProm reads a Prometheus text exposition into series -> value
// (labelled series keep their labels in the name).
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// stampMS is b−a in milliseconds for two RFC 3339 run stamps.
func stampMS(a, b string) (float64, error) {
	ta, err := time.Parse(time.RFC3339Nano, a)
	if err != nil {
		return 0, err
	}
	tb, err := time.Parse(time.RFC3339Nano, b)
	if err != nil {
		return 0, err
	}
	return ms(tb.Sub(ta)), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
