package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/server"
)

// stack is one booted serving stack: the nwserved handler behind a loopback
// listener, and the client that talks to it over at most connections
// connections.
type stack struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed once hs.Serve has returned
	base   string
	client *http.Client
	path   string
}

// setupTimes is one set-up, step by step.  total runs from the query-set
// source to the first successful response.
type setupTimes struct {
	source, plan, marshal, write, boot, first, total time.Duration
	bundleBytes                                      int
}

// boot runs one complete set-up: build the query set from its source
// (constructors or DSL compile), plan it where the workload does, marshal
// it, write it to disk, server.New (open, hash verify, register, start
// shards), listen, and send probe until the first 200.  wrap, when set,
// installs the tracing middleware around the server's handler.
func boot(w *workload, path string, probe *doc, wrap func(http.Handler) http.Handler) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	mark := start
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}
	b, err := w.source()
	if err != nil {
		return nil, t, err
	}
	t.source = lap()
	if b, err = w.planBundle(b); err != nil {
		return nil, t, err
	}
	t.plan = lap()
	raw := b.Marshal()
	t.bundleBytes = len(raw)
	t.marshal = lap()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, t, fmt.Errorf("write bundle: %w", err)
	}
	t.write = lap()
	srv, err := server.New(server.Config{BundlePath: path})
	if err != nil {
		return nil, t, err
	}
	t.boot = lap()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, t, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	st := &stack{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			DisableCompression:  true,
		}},
		path: path,
	}
	go func() {
		defer close(st.served)
		st.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	var buf bytes.Buffer
	code, err := st.post(documentPath("probe", probe.format), probe.body, 0, &buf)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("probe request: HTTP %d: %s", code, buf.Bytes())
	}
	if err != nil {
		st.close()
		return nil, t, err
	}
	t.first = lap()
	t.total = mark.Sub(start)
	return st, t, nil
}

// documentPath is the POST /v1/documents request path for one document.
func documentPath(id, format string) string {
	p := "/v1/documents?id=" + id
	if format != "" {
		p += "&format=" + format
	}
	return p
}

// bundlePath names the k-th set-up's bundle file under dir.
func bundlePath(dir string, k int) string {
	return filepath.Join(dir, "bundle-"+strconv.Itoa(k)+".nwq")
}

// reqHeader carries the traced request ID from the client span to the
// middleware's handler span.
const reqHeader = "X-Perfbench-Request"

// post sends one request and reads the whole reply into buf.  A non-zero
// reqID is sent in reqHeader for the tracer.
func (s *stack) post(path string, body []byte, reqID int64, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if reqID != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read reply: %w", err)
	}
	return resp.StatusCode, nil
}

// close stops the listener and waits for the serve loop to return, closes
// the server (its pool drains once the last request released it), and
// deletes the bundle file.
func (s *stack) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}
