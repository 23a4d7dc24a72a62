(* The filtered arithmetic kernel (Numeric.Filter) against its own
   specification: every predicate returns the exact answer under both
   kernels. The exact kernel is the oracle — each property evaluates
   the same predicate under [Kernel.with_mode Exact] and
   [... Filtered] and demands identical results, on random rationals
   and on adversarial near-degenerate inputs (exact zeros, ±1/2^200
   perturbations, huge and tiny magnitudes) engineered to sit inside
   the interval filter's uncertainty band.

   The end-to-end half is transcript invariance: a full checked d=3
   execution must produce byte-identical transcripts and equal
   decision polytopes under both kernels — the filter is allowed to be
   faster, never observable. *)

module Q = Numeric.Q
module K = Numeric.Kernel
module Filter = Numeric.Filter

let exact f = K.with_mode K.Exact f
let filtered f = K.with_mode K.Filtered f

(* 1/2^200: far below any float's resolution of the surrounding
   magnitudes, so a perturbed value is indistinguishable from the
   unperturbed one in double precision — only the exact fallback can
   tell them apart. *)
let tiny = Q.pow Q.half 200
let huge = Q.pow (Q.of_int 10) 40

let gen_q =
  let open QCheck.Gen in
  let* n = -1000000 -- 1000000 in
  let* d = 1 -- 1000000 in
  return (Q.of_ints n d)

(* Random rationals spiked with the adversarial family. *)
let gen_adv =
  let open QCheck.Gen in
  let* base = gen_q in
  oneofl
    [ base; Q.zero; Q.add base tiny; Q.sub base tiny; Q.mul base huge;
      Q.div base huge; Q.mul tiny base; Q.neg base ]

let arb_adv = QCheck.make ~print:Q.to_string gen_adv

let gen_arr dim = QCheck.Gen.(map Array.of_list (list_size (return dim) gen_adv))

let print_arr a =
  "[" ^ String.concat ", " (Array.to_list (Array.map Q.to_string a)) ^ "]"

let arb_dot =
  (* (a, p, b) with b biased to land exactly on, or 1/2^200 off, the
     hyperplane a.x = b — the inputs the float filter cannot decide. *)
  let open QCheck.Gen in
  let gen =
    let* dim = 2 -- 4 in
    let* a = gen_arr dim in
    let* p = gen_arr dim in
    let dot =
      Array.fold_left Q.add Q.zero (Array.map2 Q.mul a p)
    in
    let* b = oneofl [ dot; Q.add dot tiny; Q.sub dot tiny; Q.zero; Q.mul dot Q.two ] in
    return (a, p, b)
  in
  QCheck.make
    ~print:(fun (a, p, b) ->
        Printf.sprintf "a=%s p=%s b=%s" (print_arr a) (print_arr p)
          (Q.to_string b))
    gen

let arb_cross =
  let open QCheck.Gen in
  let gen =
    let* o = gen_arr 2 in
    let* a = gen_arr 2 in
    (* b biased toward exact collinearity with (o, a). *)
    let* k = oneofl [ Q.of_int 2; Q.neg Q.one; Q.half; Q.add Q.one tiny ] in
    let colinear =
      Array.map2 (fun oi ai -> Q.add oi (Q.mul k (Q.sub ai oi))) o a
    in
    let* b = oneof [ return colinear; gen_arr 2 ] in
    return (o, a, b)
  in
  QCheck.make
    ~print:(fun (o, a, b) ->
        Printf.sprintf "o=%s a=%s b=%s" (print_arr o) (print_arr a)
          (print_arr b))
    gen

let props =
  [ Gen.prop ~count:500 "sign: filtered = exact" arb_adv
      (fun x ->
         filtered (fun () -> Filter.sign x) = exact (fun () -> Filter.sign x));
    Gen.prop ~count:500 "compare: filtered = exact" (QCheck.pair arb_adv arb_adv)
      (fun (a, b) ->
         filtered (fun () -> Filter.compare a b)
         = exact (fun () -> Filter.compare a b));
    Gen.prop ~count:500 "Q.compare carries the filter" (QCheck.pair arb_adv arb_adv)
      (fun (a, b) ->
         filtered (fun () -> Q.compare a b) = exact (fun () -> Q.compare a b));
    Gen.prop ~count:500 "dot-minus: filtered = exact" arb_dot
      (fun (a, p, b) ->
         filtered (fun () -> Filter.sign_of_dot_minus a p b)
         = exact (fun () -> Filter.sign_of_dot_minus a p b));
    Gen.prop ~count:500 "cross2: filtered = exact" arb_cross
      (fun (o, a, b) ->
         filtered (fun () -> Filter.sign_cross2 o a b)
         = exact (fun () -> Filter.sign_cross2 o a b));
    Gen.prop ~count:500 "cross2o: filtered = exact" arb_cross
      (fun (_, a, b) ->
         filtered (fun () -> Filter.sign_cross2o a b)
         = exact (fun () -> Filter.sign_cross2o a b)) ]

(* Hand-picked degeneracies: the filter must take the exact fallback
   here and still answer correctly. *)
let test_adversarial_units () =
  let check_sign name expect x =
    Alcotest.(check int) name expect (filtered (fun () -> Filter.sign x))
  in
  check_sign "exact zero" 0 (Q.sub (Q.of_ints 1 3) (Q.of_ints 2 6));
  check_sign "+tiny" 1 tiny;
  check_sign "-tiny" (-1) (Q.neg tiny);
  check_sign "huge + tiny - huge" 1 (Q.sub (Q.add huge tiny) huge);
  let a = [| Q.of_ints 1 3; Q.of_ints (-2) 7 |] in
  let p = [| Q.of_ints 21 5; Q.of_ints 7 11 |] in
  let dot = Q.add (Q.mul a.(0) p.(0)) (Q.mul a.(1) p.(1)) in
  let d0 = filtered (fun () -> Filter.sign_of_dot_minus a p dot) in
  Alcotest.(check int) "dot exactly on hyperplane" 0 d0;
  Alcotest.(check int) "dot tiny above" 1
    (filtered (fun () -> Filter.sign_of_dot_minus a p (Q.sub dot tiny)));
  Alcotest.(check int) "dot tiny below" (-1)
    (filtered (fun () -> Filter.sign_of_dot_minus a p (Q.add dot tiny)))

(* The enclosure cache is bounded by a per-domain ring. With room for
   only 8 enclosures, filtered predicates over hundreds of live
   rationals keep evicting; an evicted rational recomputes its
   enclosure on the next pass, so every answer stays exact. *)
let test_enclosure_ring_eviction () =
  let st = Random.State.make [| 99 |] in
  let cases =
    List.init 50 (fun _ -> (gen_arr 3 st, gen_arr 3 st, gen_adv st))
  in
  let want =
    List.map
      (fun (a, p, b) -> exact (fun () -> Filter.sign_of_dot_minus a p b))
      cases
  in
  Fun.protect
    ~finally:(fun () -> Q.set_enclosure_cache_capacity 65536)
    (fun () ->
       Q.set_enclosure_cache_capacity 8;
       let ins0, ev0 = Q.enclosure_cache_stats () in
       for pass = 1 to 2 do
         List.iter2
           (fun (a, p, b) w ->
              Alcotest.(check int)
                (Printf.sprintf "pass %d: sign under eviction pressure" pass)
                w
                (filtered (fun () -> Filter.sign_of_dot_minus a p b)))
           cases want
       done;
       let ins1, ev1 = Q.enclosure_cache_stats () in
       Alcotest.(check bool) "enclosure ring inserted" true (ins1 > ins0);
       Alcotest.(check bool) "enclosure ring evicted" true (ev1 > ev0))

(* Transcript invariance: same scenario, both kernels, memo bypassed —
   byte-identical event streams and equal decisions. *)
let test_transcript_invariance () =
  let config =
    Chc.Config.make ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Chc.Executor.default_spec ~config ~seed:42 () in
  let run_under m =
    Parallel.Memo.with_bypass (fun () ->
        let trace = Obs.Trace.create () in
        let r =
          Chc.Executor.run ~trace { spec with Chc.Scenario.kernel = Some m }
        in
        (r, Obs.Trace.to_jsonl trace))
  in
  let re, je = run_under K.Exact in
  let rf, jf = run_under K.Filtered in
  Alcotest.(check bool) "exact run healthy" true
    (re.Chc.Executor.terminated && re.Chc.Executor.valid
     && re.Chc.Executor.agreement_ok && re.Chc.Executor.optimal);
  Alcotest.(check string) "byte-identical transcripts" je jf;
  Alcotest.(check int) "same t_end" re.Chc.Executor.result.Chc.Cc.t_end
    rf.Chc.Executor.result.Chc.Cc.t_end;
  Array.iteri
    (fun i o ->
       let same =
         match (o, rf.Chc.Executor.result.Chc.Cc.outputs.(i)) with
         | None, None -> true
         | Some p, Some p' -> Geometry.Polytope.equal p p'
         | _ -> false
       in
       Alcotest.(check bool)
         (Printf.sprintf "process %d decides identically" i)
         true same)
    re.Chc.Executor.result.Chc.Cc.outputs

(* The differential oracle itself: codec roundtrip and a passing grade
   on a healthy scenario. *)
let test_oracle_kernel_equivalence () =
  let o = Fuzz.Oracle.Kernel_equivalence in
  (match Fuzz.Oracle.of_json (Fuzz.Oracle.to_json o) with
   | Ok o' -> Alcotest.(check string) "codec roundtrip" (Fuzz.Oracle.name o)
                (Fuzz.Oracle.name o')
   | Error e -> Alcotest.fail ("oracle codec: " ^ e));
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Chc.Executor.default_spec ~config ~seed:7 () in
  match Fuzz.Oracle.check o spec with
  | Fuzz.Oracle.Pass -> ()
  | Fuzz.Oracle.Fail msg -> Alcotest.fail ("kernel divergence: " ^ msg)

(* Rationals whose numerators and denominators have 1,000–1,030 bits:
   their float images sit within a factor 2^24 of DBL_MAX or past it,
   where the enclosure's relative pad once overflowed to infinity and
   a denominator's enclosure straddled zero. Either sign, and
   denominators of 1 mixed in. *)
let gen_wide =
  let open QCheck.Gen in
  let wide =
    let* bits = 1000 -- 1030 in
    let* top = (1 lsl 29) -- ((1 lsl 30) - 1) in
    let* low = 0 -- ((1 lsl 30) - 1) in
    return
      (Numeric.Bigint.add
         (Numeric.Bigint.shift_left (Numeric.Bigint.of_int top) (bits - 30))
         (Numeric.Bigint.of_int low))
  in
  let* num = wide in
  let* neg = bool in
  let* den = frequency [ (4, wide); (1, return Numeric.Bigint.one) ] in
  return (Q.make (if neg then Numeric.Bigint.neg num else num) den)

let wide_props =
  [ Gen.prop ~count:500 "Q.compare = exact on 1,000-1,030-bit parts"
      (QCheck.pair
         (QCheck.make ~print:Q.to_string gen_wide)
         (QCheck.make ~print:Q.to_string gen_wide))
      (fun (a, b) ->
         filtered (fun () -> Q.compare a b) = exact (fun () -> Q.compare a b)
         && filtered (fun () -> Q.compare b a)
            = exact (fun () -> Q.compare b a)) ]

let suite =
  [ ( "filter",
      [ Alcotest.test_case "adversarial units" `Quick test_adversarial_units;
        Alcotest.test_case "transcript invariance d=3" `Quick
          test_transcript_invariance;
        Alcotest.test_case "kernel-equivalence oracle" `Quick
          test_oracle_kernel_equivalence ]
      @ List.map Gen.qtest props
      @ [ Alcotest.test_case "enclosure ring eviction stays sound" `Quick
            test_enclosure_ring_eviction ]
      @ List.map Gen.qtest wide_props ) ]
