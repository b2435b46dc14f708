package controller

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/httpcache"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// TestConcurrentFetchDuringRegeneration hammers the pinglist endpoint
// while topology updates regenerate the file set; every response must be a
// complete, valid pinglist of either the old or new generation (the atomic
// swap must never expose a half-built state).
func TestConcurrentFetchDuringRegeneration(t *testing.T) {
	top := topology.SmallTestbed()
	c, err := New(top, core.DefaultGeneratorConfig(), simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	name := top.Server(0).Name

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f, err := client.Fetch(context.Background(), name)
				if err != nil {
					errs <- err
					return
				}
				if len(f.Peers) == 0 || f.Validate() != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := c.UpdateTopology(top); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("fetch during regeneration: %v", err)
	}
	if c.Version() != "gen-51" {
		t.Fatalf("version = %s after 50 updates", c.Version())
	}
}

// TestStressHandlerVsUpdateAndClear hammers the handler with concurrent
// conditional and unconditional GETs while UpdateTopology and Clear cycle
// in a loop. Designed for `go test -race`: every response must be
// internally consistent (a 200's ETag must hash its own body; a 304 must
// only answer a conditional request) and the atomic state swap must never
// mix generations within one response.
func TestStressHandlerVsUpdateAndClear(t *testing.T) {
	top := topology.SmallTestbed()
	c, err := New(top, core.DefaultGeneratorConfig(), simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	name := top.Server(0).Name

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup

	// Cached clients: revalidate with ETags, tolerate the Clear windows.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &Client{BaseURL: srv.URL}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := client.FetchDetail(context.Background(), name)
				if err != nil {
					var noPL *ErrNoPinglist
					if errors.As(err, &noPL) {
						continue // raced with Clear
					}
					errs <- err
					return
				}
				if res.File.Validate() != nil || len(res.File.Peers) == 0 {
					errs <- fmt.Errorf("invalid pinglist served")
					return
				}
			}
		}()
	}
	// Raw GETs: check ETag/body consistency under the swap.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/pinglist/" + name)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode == http.StatusNotFound {
					continue // raced with Clear
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if got, want := httpcache.ETagFor(body), resp.Header.Get("ETag"); got != want {
					errs <- fmt.Errorf("ETag %s does not hash body (want %s): generations mixed", want, got)
					return
				}
			}
		}()
	}

	for i := 0; i < 30; i++ {
		if err := c.UpdateTopology(top); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			c.Clear()
			c.UpdateTopology(top)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stress: %v", err)
	}
}

// TestInterDCPeersServed verifies the controller serves inter-DC entries
// for the selected servers of a multi-DC fleet.
func TestInterDCPeersServed(t *testing.T) {
	top := topology.SmallTestbed() // two DCs
	c, err := New(top, core.DefaultGeneratorConfig(), simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	interDC := 0
	for _, s := range top.Servers() {
		f, err := client.Fetch(context.Background(), s.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range f.Peers {
			if p.Class == probe.InterDC.String() {
				interDC++
				// Inter-DC targets must resolve to a server in the other DC.
				id, ok := top.ServerByAddrString(p.Addr)
				if !ok || top.Server(id).DC == s.DC {
					t.Fatalf("bad inter-DC peer %s for %s", p.Addr, s.Name)
				}
			}
		}
	}
	if interDC == 0 {
		t.Fatal("no inter-DC peers served for a two-DC fleet")
	}
}
