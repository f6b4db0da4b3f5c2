// livedns materialises one day of the simulated Internet as real
// authoritative DNS servers over kernel UDP sockets (loopback, with NAT
// translation of the simulated address space), then resolves a protected
// domain with the measuring resolver: root referral → TLD referral →
// authoritative answer, CNAME chased across zones into the DPS — every
// datagram a genuine RFC 1035 message through the kernel.
//
//	go run ./examples/livedns
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"

	"dpsadopt/internal/core"
	"dpsadopt/internal/dnsclient"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

func main() {
	world, err := worldsim.New(worldsim.DefaultConfig(400_000))
	if err != nil {
		log.Fatal(err)
	}
	day := world.Cfg.Window.Start + 30

	// Pick an Incapsula CNAME customer to showcase CNAME-based diversion.
	var target *worldsim.Domain
	for _, d := range world.Domains {
		if c := d.Cust; c != nil && c.Provider == worldsim.Incapsula &&
			c.Profile == worldsim.ProfileCNAME && !c.OnDemand && d.Life.Contains(day) {
			target = d
			break
		}
	}
	if target == nil {
		log.Fatal("no Incapsula CNAME customer in this world")
	}

	network := transport.NewMappedUDP()
	wire, err := world.BuildWire(day, network)
	if err != nil {
		log.Fatal(err)
	}
	defer wire.Close()
	fmt.Printf("simulated Internet for %s is live; root server at %v\n\n", day, wire.Roots[0])

	resolver, err := dnsclient.NewResolver(network, netip.MustParseAddr("10.250.0.1"), wire.Roots, 42)
	if err != nil {
		log.Fatal(err)
	}
	defer resolver.Close()

	name := "www." + target.Name
	res, err := resolver.Resolve(context.Background(), name, dnswire.TypeA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf(";; %s A -> %s (%d queries over UDP)\n", name, res.RCode, res.Queries)
	for _, rr := range res.Records {
		fmt.Println("  ", rr)
	}

	nsRes, err := resolver.Resolve(context.Background(), target.Name, dnswire.TypeNS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf(";; %s NS -> %s\n", target.Name, nsRes.RCode)
	for _, rr := range nsRes.Records {
		fmt.Println("  ", rr)
	}

	// Now apply the paper's detection to what we just resolved.
	refs := core.MustGroundTruth()
	table, err := pfx2as.FromSnapshot(world.RIBForDay(day).Snapshot())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndetection:")
	for _, cname := range res.CNAMEs() {
		if p, ok := refs.MatchCNAME(cname); ok {
			fmt.Printf("  CNAME %s -> SLD %s -> %s\n", cname, core.SLD(cname), refs.Providers[p].Name)
		}
	}
	for _, addr := range res.Addrs() {
		if origins, ok := table.Lookup(addr); ok {
			for _, o := range origins {
				if p, ok := refs.MatchASN(o); ok {
					fmt.Printf("  address %v -> AS%d -> %s\n", addr, o, refs.Providers[p].Name)
				}
			}
		}
	}
}
