(** Streaming general matrix multiply — the library's 3-deep counted
    nest.  One multiply–accumulate per innermost iteration over streamed
    operand ports; the accumulator is zeroed per output element (the
    middle loop's prologue) and the element written after the reduction
    (its epilogue):

    {[
      for (i = 0; i < n; i++)           // row
        for (j = 0; j < n; j++) {       // col
          acc = 0;
          for (k = 0; k < n; k++)       // mac
            acc += a * b;
          write c acc;
        }
    ]}

    The frontend flattens all three dimensions onto one combined
    induction counter ({!Hls_frontend.Nest.flatten}), so the pipeline
    kernel is the single multiply–accumulate and the enclosing rows'
    IIs derive by stride.  The legacy lowering would instead unroll
    [n^2] copies of the MAC into the outer body. *)

open Hls_frontend

let design ?(n = 4) ?(width = 8) ?(min_latency = 1) ?(max_latency = 16) ?ii () =
  let open Dsl in
  let acc_w = (2 * width) + 8 in
  let mac = [ "acc" := v "acc" +: (port "a" *: port "b"); wait ] in
  let col =
    [
      "acc" := int_w 0 ~width:acc_w;
      for_ ~name:"mac" ?ii ~min_latency ~max_latency "k" ~from:0 ~below:n mac;
      write "c" (v "acc");
    ]
  in
  design
    (Printf.sprintf "gemm%d" n)
    ~ins:[ in_port "a" width; in_port "b" width ]
    ~outs:[ out_port "c" acc_w ]
    ~vars:[ var "acc" acc_w; var "i" 8; var "j" 8; var "k" 8 ]
    [
      for_ ~name:"row" "i" ~from:0 ~below:n
        [ for_ ~name:"col" "j" ~from:0 ~below:n col ];
    ]

let elaborated ?n ?width ?min_latency ?max_latency ?ii () =
  Elaborate.design (design ?n ?width ?min_latency ?max_latency ?ii ())
