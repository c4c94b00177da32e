// Quickstart: the smallest complete PARDIS program.
//
// One process hosts the naming service, a conventional (single-threaded)
// object, and a client. The object offers two operations:
//
//	interface greeter {
//	    string greet(in string who);
//	    double mean(in dsequence<double> values);
//	};
//
// The client binds by name and invokes both — the second with a distributed
// sequence, showing that the non-distributed mapping (plain _bind, paper
// §2.1) works without any SPMD setup.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rts"
)

func main() {
	// 1. Start the naming service.
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ns.Close()

	// 2. Export the object. A conventional object is an SPMD object with
	// one computing thread.
	greetDesc := core.OpDesc{Name: "greet"}
	meanDesc := core.OpDesc{Name: "mean", Args: []core.ArgDesc{{Name: "values", Dir: core.In, Elem: "double"}}}
	serverWorld := rts.NewWorld(1)
	defer serverWorld.Close()
	serverDone := make(chan error, 1)
	objCh := make(chan *core.Object, 1)
	go func() {
		serverDone <- serverWorld.Run(func(c *rts.Comm) error {
			obj, err := core.Export(c, core.ExportOptions{
				TypeID:     "IDL:quickstart/greeter:1.0",
				Name:       "greeter",
				NameServer: ns.Addr(),
			}, []core.Operation{
				{
					Desc:    greetDesc,
					NewArgs: func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil },
					Handler: func(call *core.ServerCall) error {
						who, err := call.In.ReadString()
						if err != nil {
							return orb.Marshal(err)
						}
						call.Out.WriteString("hello, " + who + "!")
						return nil
					},
				},
				{
					Desc:    meanDesc,
					NewArgs: core.SeqArgsFloat64(meanDesc.Args),
					Handler: func(call *core.ServerCall) error {
						values := core.ArgSeq[float64](call, 0)
						sum := 0.0
						for _, v := range values.LocalData() {
							sum += v
						}
						if values.Len() > 0 {
							sum /= float64(values.Len())
						}
						call.Out.WriteDouble(sum)
						return nil
					},
				},
			})
			if err != nil {
				return err
			}
			objCh <- obj
			return obj.Serve()
		})
	}()
	obj := <-objCh

	// 3. Bind and invoke from a client.
	client, err := core.Bind("greeter", ns.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	enc := core.ScalarEncoder()
	enc.WriteString("PARDIS")
	reply, err := client.Invoke("greet", enc.Bytes(), nil)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := core.ScalarDecoder(reply)
	if err != nil {
		log.Fatal(err)
	}
	greeting, err := dec.ReadString()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(greeting)

	// A distributed argument through the non-distributed mapping: the
	// client's single thread owns the whole sequence.
	values, err := dseq.New(client.Comm(), dseq.Float64, 101, nil)
	if err != nil {
		log.Fatal(err)
	}
	values.FillFunc(func(g int) float64 { return float64(g) })
	reply, err = client.Invoke("mean", core.ScalarEncoder().Bytes(), []core.DistArg{core.InSeq(values)})
	if err != nil {
		log.Fatal(err)
	}
	dec, _ = core.ScalarDecoder(reply)
	mean, err := dec.ReadDouble()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean of 0..100 = %v\n", mean)

	// 4. Shut down.
	obj.Close()
	if err := <-serverDone; err != nil {
		log.Fatal(err)
	}
	fmt.Println("quickstart complete")
}
