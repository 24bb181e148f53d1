package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"testing"
	"time"
)

// freePort reserves an ephemeral port and releases it for the daemon to
// bind. The tiny race (another process grabbing it in between) is the
// standard test tradeoff for daemons that must know their own address.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func waitForMetric(t *testing.T, url, pattern string, timeout time.Duration) {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(timeout)
	for {
		if re.MatchString(scrapeMetrics(t, url)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %q never appeared at %s:\n%s", pattern, url, scrapeMetrics(t, url))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestDaemonDynamicJoinAndLeave boots a two-node cluster, joins a third
// node mid-run that names only A in -peers, checks the ring converges on
// every node and that the joiner answers byte-identically, then shuts the
// joiner down gracefully and checks the survivors see the departure.
func TestDaemonDynamicJoinAndLeave(t *testing.T) {
	portA, portB, portC := freePort(t), freePort(t), freePort(t)
	urlOf := func(p int) string { return fmt.Sprintf("http://127.0.0.1:%d", p) }
	urlA, urlB, urlC := urlOf(portA), urlOf(portB), urlOf(portC)

	common := []string{"-gossip", "100ms", "-suspicion", "5s", "-drain", "2s"}
	_, stopA, exitA, _ := startDaemon(t, append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", portA),
		"-self", urlA, "-peers", urlB}, common...)...)
	_, stopB, exitB, _ := startDaemon(t, append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", portB),
		"-self", urlB, "-peers", urlA}, common...)...)
	defer func() {
		stopA()
		stopB()
		<-exitA
		<-exitB
	}()
	waitForMetric(t, urlA, `dtse_cluster_members 2`, 10*time.Second)
	waitForMetric(t, urlB, `dtse_cluster_members 2`, 10*time.Second)

	// A baseline exploration before the topology changes.
	body := fmt.Sprintf(`{"spec": %s, "budget": 20000}`, testSpecJSON)
	status, ref := post(t, urlA, body)
	if status != http.StatusOK {
		t.Fatalf("baseline explore: status %d: %s", status, ref)
	}

	// Third node joins mid-run knowing only member A.
	_, stopC, exitC, _ := startDaemon(t, append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", portC),
		"-self", urlC, "-peers", urlA}, common...)...)
	for _, u := range []string{urlA, urlB, urlC} {
		waitForMetric(t, u, `dtse_cluster_members 3`, 15*time.Second)
	}

	// The joiner serves the same request byte-identically (routed or
	// local, cached or recomputed — the contract is the bytes).
	status, got := post(t, urlC, body)
	if status != http.StatusOK {
		t.Fatalf("explore via joiner: status %d: %s", status, got)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("joiner answered differently:\nref: %s\ngot: %s", ref, got)
	}

	// Graceful leave: C announces on shutdown; survivors drop to 2 members
	// without waiting out any suspicion timeout.
	stopC()
	if code := <-exitC; code != 0 {
		t.Fatalf("joiner exited %d", code)
	}
	waitForMetric(t, urlA, `dtse_cluster_members 2`, 10*time.Second)
	waitForMetric(t, urlB, `dtse_cluster_members 2`, 10*time.Second)
	if !regexp.MustCompile(`dtse_cluster_leaves_total [1-9]`).MatchString(scrapeMetrics(t, urlA) + scrapeMetrics(t, urlB)) {
		// The goodbye digest is merged via the gossip endpoint on A and B;
		// the leave counter lives on the departing node, so survivors show
		// member_leaves instead.
		waitForMetric(t, urlA, `dtse_cluster_member_leaves_total [1-9]`, 5*time.Second)
	}
}
