// Command pindiff demonstrates the dynamic half of the methodology on a
// single app: it runs the app on an emulated device with and without the
// MITM proxy, prints the per-destination connection classifications, and
// gives the differential pinning verdict.
//
// Usage:
//
//	pindiff [-seed N] [-platform android|ios] [-app com.example.id]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pinscope/internal/appmodel"
	"pinscope/internal/detrand"
	"pinscope/internal/device"
	"pinscope/internal/dynamicanalysis"
	"pinscope/internal/mitmproxy"
	"pinscope/internal/pki"
	"pinscope/internal/worldgen"
)

func main() {
	seed := flag.Int64("seed", 7, "world seed")
	platform := flag.String("platform", "ios", "android or ios")
	appID := flag.String("app", "", "app id (default: first pinning app)")
	flag.Parse()

	plat := appmodel.Android
	if *platform == "ios" {
		plat = appmodel.IOS
	}

	w, err := worldgen.Build(worldgen.TestParams(*seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pindiff: %v\n", err)
		os.Exit(1)
	}
	var target *appmodel.App
	for _, ds := range w.DS.All() {
		for _, a := range w.Apps(ds) {
			if a.Platform != plat {
				continue
			}
			if *appID != "" && a.ID == *appID {
				target = a
			}
			if *appID == "" && target == nil && a.Truth.PinsAtRuntime {
				target = a
			}
		}
	}
	if target == nil {
		fmt.Fprintln(os.Stderr, "pindiff: no matching app")
		os.Exit(1)
	}

	stores := map[appmodel.Platform]*pki.RootStore{
		appmodel.Android: w.Eco.OEM,
		appmodel.IOS:     w.Eco.IOS,
	}
	mk := func(label string) *device.Device {
		return device.New(plat, w.NewNetwork(true), stores[plat],
			detrand.New(*seed).Child("pindiff/"+label))
	}
	dPlain := mk("dev")
	dMITM := mk("dev") // same label: identical device identity
	proxy, err := mitmproxy.NewWithCA(detrand.New(*seed).Child("proxy"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dMITM.Net.SetInterceptor(proxy)
	dMITM.InstallCA(proxy.CACert())

	fmt.Printf("app: %s (%s, %s)\n\n", target.ID, target.Name, plat)
	fmt.Println("run 1: baseline (no interception), 30 s capture")
	capA := dPlain.Run(target, device.RunOptions{})
	fmt.Printf("  %d flows captured\n", len(capA.Flows()))

	fmt.Println("run 2: MITM (mitmproxy CA installed, all TLS intercepted)")
	capB := dMITM.Run(target, device.RunOptions{})
	fmt.Printf("  %d flows captured\n\n", len(capB.Flows()))

	opts := dynamicanalysis.Options{}
	if plat == appmodel.IOS {
		opts.ExcludeDomains = append(opts.ExcludeDomains, device.AppleBackgroundDomains...)
		opts.ExcludeDomains = append(opts.ExcludeDomains, target.AssociatedDomains...)
	}
	res := dynamicanalysis.Detect(target.ID, capA, capB, opts)

	fmt.Println("per-destination differential verdicts:")
	var dests []string
	for d := range res.Verdicts {
		dests = append(dests, d)
	}
	sort.Strings(dests)
	for _, d := range dests {
		v := res.Verdicts[d]
		status := "not pinned"
		switch {
		case v.Excluded:
			status = "excluded (OS traffic)"
		case v.Pinned:
			status = "PINNED"
		case !v.UsedNoMITM:
			status = "inconclusive (never used)"
		}
		fmt.Printf("  %-36s baseline-used=%-5v mitm-used=%-5v  %s\n",
			d, v.UsedNoMITM, v.UsedMITM, status)
	}

	fmt.Printf("\nverdict: app pins = %v; pinned destinations: %v\n", res.Pins(), res.PinnedDests())
	fmt.Printf("ground truth (generator): %v\n", target.Truth.PinnedHosts)
}
