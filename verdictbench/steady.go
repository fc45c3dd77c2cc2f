package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady runs one workload repeatedly, each run in its own process with
// its own seed, and prints each metric's median, quartiles, min/max and
// inter-quartile spread as a share of the median, so that bounds are set
// from measured spread. The quartiles are those of Python's
// statistics.quantiles(values, n=4). It fails if the share of failed
// operations differs between runs or any run is not correct.
func steady(args []string) int {
	fs := flag.NewFlagSet("verdictbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	firstSeed := fs.Int64("first-seed", 1, "seed of the first run; run k uses first-seed+k")
	seconds := fs.String("seconds", "15", "timed window of each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := findWorkload(*name); err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench steady:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShare []float64
	for k := 0; k < *runs; k++ {
		seed := *firstSeed + int64(k)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", *seconds, "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "verdictbench steady: run with seed %d: %v\n", seed, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verdictbench steady: run with seed %d: %v\n", seed, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "verdictbench steady: run with seed %d is not correct\n", seed)
			return 1
		}
		failShare = append(failShare, float64(res.Failed)/float64(res.Attempted))
		fmt.Printf("run seed=%d attempted=%d failed=%d", seed, res.Attempted, res.Failed)
		for _, key := range sortedKeys(res.Metrics) {
			m := res.Metrics[key]
			values[key] = append(values[key], m.Value)
			units[key] = m.Unit
			fmt.Printf(" %s=%.6g", key, m.Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-28s %-6s %12s %12s %12s %12s %12s %8s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		vals := append([]float64(nil), values[key]...)
		sort.Float64s(vals)
		q1, med, q3 := quartiles(vals)
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Printf("%-28s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n",
			key, units[key], med, q1, q3, vals[0], vals[len(vals)-1], spread)
	}
	for _, s := range failShare {
		if s != failShare[0] {
			fmt.Fprintln(os.Stderr, "verdictbench steady: the share of failed operations differs between runs")
			return 1
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of
// sorted values by the exclusive method of Python's statistics.quantiles.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// lastResult decodes the JSON object on the last non-empty output line.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if last == nil {
		return res, fmt.Errorf("no result line")
	}
	err := json.Unmarshal(last, &res)
	return res, err
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
