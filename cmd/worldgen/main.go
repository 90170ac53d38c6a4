// Command worldgen generates a study world and prints its dataset overview
// (the Table 1 counterpart) plus infrastructure statistics, without running
// any analysis. Useful for inspecting what a seed produces.
//
// Usage:
//
//	worldgen [-seed N] [-scale mini|paper]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"pinscope/internal/stats"
	"pinscope/internal/worldgen"
)

func main() {
	seed := flag.Int64("seed", 0, "world seed (0 = default)")
	scale := flag.String("scale", "mini", "mini or paper")
	flag.Parse()

	var params worldgen.Params
	switch *scale {
	case "paper":
		params = worldgen.Derive(worldgen.Params{Seed: *seed})
	case "mini":
		s := *seed
		if s == 0 {
			s = 1
		}
		params = worldgen.TestParams(s)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	start := time.Now()
	w, err := worldgen.Build(params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("world built in %s (seed %d)\n\n", time.Since(start).Round(time.Millisecond), params.Seed)
	fmt.Printf("stores:  Android %d listings, iOS %d listings\n",
		w.StoreAndroid.Len(), w.StoreIOS.Len())
	fmt.Printf("hosts:   %d destination servers (%d CT-logged certificates)\n",
		len(w.Hosts), w.CT.Size())
	fmt.Printf("whois:   %d registrations\n", w.Whois.Len())
	fmt.Printf("pairs:   %d common apps on both platforms\n\n", len(w.CommonPairs))

	for _, ds := range w.DS.All() {
		c := stats.NewCounter()
		for _, l := range ds.Listings {
			c.Inc(l.Category)
		}
		fmt.Printf("%s %s (n=%d), top categories:\n", ds.Name, ds.Platform, len(ds.Listings))
		for i, kv := range c.Top(10) {
			fmt.Printf("  %2d. %-20s %5.1f%%\n", i+1, kv.Key, stats.Percent(kv.Count, len(ds.Listings)))
		}
		fmt.Println()
	}

	// Ground-truth summary (generator bookkeeping, not a measurement).
	type key struct{ ds, plat string }
	pins := map[key]int{}
	totals := map[key]int{}
	for _, ds := range w.DS.All() {
		for _, a := range w.Apps(ds) {
			k := key{ds.Name, string(a.Platform)}
			totals[k]++
			if a.Truth.PinsAtRuntime {
				pins[k]++
			}
		}
	}
	var keys []key
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ds != keys[j].ds {
			return keys[i].ds < keys[j].ds
		}
		return keys[i].plat < keys[j].plat
	})
	fmt.Println("ground-truth runtime pinning (what the pipelines should rediscover):")
	for _, k := range keys {
		fmt.Printf("  %-8s %-8s %5.1f%% (%d/%d)\n", k.ds, k.plat,
			stats.Percent(pins[k], totals[k]), pins[k], totals[k])
	}
}
