package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadiness runs every named workload n times, seeds 1..n, each in its own
// child process (so rss_mib stays per run), and prints per end-to-end
// metric the median, the quartiles and the spread (q3-q1)/median against
// the metric's bound. A spread below a third of the bound leaves room for
// host noise between two sets of runs.
func steadiness(sp *spec, names string, n, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var list []string
	if names == "" {
		for _, w := range sp.Workloads {
			list = append(list, w.Name)
		}
	} else {
		list = strings.Split(names, ",")
	}
	for _, w := range list {
		if _, ok := workloads[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		values := map[string][]float64{}
		var shares []string
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: parsing result: %w", w, seed, err)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		}
		fmt.Printf("%s: %d runs, failed/attempted %s\n", w, n, strings.Join(shares, " "))
		fmt.Printf("  %-16s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range sp.EndToEnd {
			vs := values[m.Name]
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag := ""
			if m.Name != "setup_s" && spread >= m.Bound/3 {
				flag = "  above a third of the bound"
			}
			fmt.Printf("  %-16s %14.6g %14.6g %14.6g %8.4f %6.3f%s\n", m.Name, med, q1, q3, spread, m.Bound, flag)
		}
		for _, m := range sp.EndToEnd {
			fmt.Printf("  %s by seed: %.6g\n", m.Name, values[m.Name])
		}
	}
	return nil
}
