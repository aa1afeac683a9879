package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifestMetric is one end_to_end entry of BENCHMARK.json, the single
// place the regression bounds are written down.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchManifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
}

func readManifest(path string) (benchManifest, error) {
	var m benchManifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// readResults loads the end-to-end results of an -out file, by
// workload.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !r.Trace {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	return byWorkload, sc.Err()
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares side B's values of one metric with side A's. worse is
// by how much of A's median B's median is worse (negative: better).
// The row is unresolved when either side's run-to-run spread — its
// interquartile distance over its median — exceeds the bound, because
// then a regression of the size of the bound cannot be told from
// noise; a side with fewer than two runs has no spread to show.
func judge(a, b []float64, higherIsBetter bool, bound float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case len(a) < 2 || len(b) < 2 || spread(a) > bound || spread(b) > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return worse, verdict
}

func values(rs []result, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failedFrac(rs []result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// hashesAgree reports whether every SeqNum both sides ran produced the
// same report hash, and how many SeqNums that covers.
func hashesAgree(a, b []result) (shared int, agree bool) {
	merged := map[string]string{}
	for _, r := range a {
		for seq, h := range r.Hashes {
			merged[seq] = h
		}
	}
	agree = true
	seen := map[string]bool{}
	for _, r := range b {
		for seq, h := range r.Hashes {
			if ha, ok := merged[seq]; ok {
				if !seen[seq] {
					seen[seq] = true
					shared++
				}
				agree = agree && ha == h
			}
		}
	}
	return shared, agree
}

// compareFiles prints, per workload × end-to-end metric, both sides'
// medians and quartiles, B's delta against the bound and the verdict.
// It is the A/A tool (two sets of runs of one commit must print ok on
// every row) and the later A/B tool.
func compareFiles(out io.Writer, manifestPath, pathA, pathB string) error {
	manifest, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	quart := func(xs []float64) string {
		if len(xs) < 2 {
			return fmt.Sprintf("%.5g (n=%d)", median(xs), len(xs))
		}
		q1, q2, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] (n=%d)", q2, q1, q3, len(xs))
	}
	bad := 0
	fmt.Fprintf(out, "A = %s\nB = %s\nmedian [q1, q3]; worse = share of A's median by which B is worse\n\n", pathA, pathB)
	for _, w := range manifest.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(out, "%-18s missing on one side (A n=%d, B n=%d): %s\n", w.Name, len(ra), len(rb), verdictUnresolved)
			continue
		}
		for _, m := range manifest.EndToEnd {
			worse, verdict := judge(values(ra, m.Name), values(rb, m.Name), m.Better == "higher", m.Bound)
			if verdict == verdictRegressed {
				bad++
			}
			fmt.Fprintf(out, "%-18s %-20s A %-38s B %-38s worse %+7.2f%% (bound %.0f%%)  %s\n",
				w.Name, m.Name+" ["+m.Unit+"]", quart(values(ra, m.Name)), quart(values(rb, m.Name)), 100*worse, 100*m.Bound, verdict)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		verdict := verdictOK
		if fb > fa {
			verdict = verdictRegressed
			bad++
		}
		fmt.Fprintf(out, "%-18s %-20s A %-38.6g B %-38.6g any increase regresses  %s\n", w.Name, "failed_frac", fa, fb, verdict)
		shared, agree := hashesAgree(ra, rb)
		verdict = verdictOK
		if !agree {
			verdict = verdictRegressed
			bad++
		}
		fmt.Fprintf(out, "%-18s %-20s %d shared SeqNums, identical: %v  %s\n\n", w.Name, "report hashes", shared, agree, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed", bad)
	}
	return nil
}
