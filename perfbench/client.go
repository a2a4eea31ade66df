package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the benchmark's single HTTP client: one goroutine issuing
// requests in sequence over one keep-alive connection.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) get(url string) (int, []byte, error) { return c.do(http.MethodGet, url, nil) }

func (c *client) getJSON(url string, v any) error {
	code, b, err := c.get(url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, code, b)
	}
	return json.Unmarshal(b, v)
}

func (c *client) close() { c.hc.CloseIdleConnections() }
