// Command benchjson runs the in-process cluster sweep behind the CI
// cluster-smoke gate (cluster.go): one dtsed node against a 3-node
// consistent-hash ring, plus a ring leg that kills a node mid-run and must
// lose no request. It writes {"cluster": [...]} to -out, or to stdout.
//
// Usage:
//
//	benchjson [-out cluster-sweep.json]
//
// Repeated-sample measurements live in `go test -bench` and cmd/dtsebench;
// this command is deleted once its three legs move into cmd/dtsebench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchjson: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if err := sweep(*out, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// sweep runs the cluster legs and writes the report to path, or to stdout
// when path is empty. The file is created first, so a bad path fails at
// once instead of after the sweep.
func sweep(path string, stdout, stderr io.Writer) (err error) {
	w := stdout
	if path != "" {
		f, createErr := os.Create(path)
		if createErr != nil {
			return createErr
		}
		defer func() {
			if closeErr := f.Close(); err == nil {
				err = closeErr
			}
		}()
		w = f
	}
	pts, err := clusterSweep(stderr)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string][]ClusterPoint{"cluster": pts})
}
