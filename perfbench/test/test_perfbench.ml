(* The benchmark's own arithmetic: nearest-rank percentiles and the
   self-time of nested spans. *)

open S4_perfbench

let check = Alcotest.check

(* --- Percentiles ---------------------------------------------------------- *)

let test_rank () =
  check Alcotest.int "p50 of 10" 4 (Stats.rank ~n:10 50.0);
  check Alcotest.int "p99 of 1000" 989 (Stats.rank ~n:1000 99.0);
  check Alcotest.int "p99 of 100" 98 (Stats.rank ~n:100 99.0);
  check Alcotest.int "p100 is the maximum" 9 (Stats.rank ~n:10 100.0);
  check Alcotest.int "p0 is the minimum" 0 (Stats.rank ~n:10 0.0);
  check Alcotest.int "one sample" 0 (Stats.rank ~n:1 99.0)

let test_top_percentile_support () =
  (* A reported percentile keeps at least ten samples beyond it. *)
  check Alcotest.int "1000 samples leave 10 beyond p99" 10 (Stats.beyond ~n:1000 99.0);
  check Alcotest.bool "p99 supported at 1000" true (Stats.supported ~n:1000 99.0);
  check Alcotest.bool "p99 not supported at 999" false (Stats.supported ~n:999 99.0);
  check Alcotest.bool "p50 supported at 20" true (Stats.supported ~n:20 50.0);
  check Alcotest.bool "p50 not supported at 19" false (Stats.supported ~n:19 50.0);
  check Alcotest.bool "nothing supported without samples" false (Stats.supported ~n:0 50.0);
  for n = 1 to 3000 do
    if Stats.supported ~n 99.0 then
      check Alcotest.bool "supported means 10 beyond" true (Stats.beyond ~n 99.0 >= 10)
  done

let test_percentile_values () =
  let xs = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  let s = Stats.sorted xs in
  check (Alcotest.float 0.0) "sorted copy leaves input" 999.0 xs.(0);
  check (Alcotest.float 0.0) "p50" 499.0 (Stats.percentile s 50.0);
  check (Alcotest.float 0.0) "p99" 989.0 (Stats.percentile s 99.0);
  check (Alcotest.float 0.0) "odd median" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check (Alcotest.float 0.0) "even median" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  check Alcotest.bool "empty median" true (Float.is_nan (Stats.median [||]))

(* --- Self time ----------------------------------------------------------- *)

let span parent start stop =
  { Selftime.parent; start = Int64.of_int start; stop = Int64.of_int stop }
let selfs spans = Array.to_list (Array.map Int64.to_int (Selftime.self_times (Array.of_list spans)))

let test_nested () =
  (* root [0,100) > mid [10,60) > leaf [20,30) *)
  check (Alcotest.list Alcotest.int) "nested" [ 50; 40; 10 ]
    (selfs [ span (-1) 0 100; span 0 10 60; span 1 20 30 ])

let test_overlapping_children () =
  (* Two children overlapping on [20,30): the union is 40, not 50. *)
  check (Alcotest.list Alcotest.int) "overlap counted once" [ 60; 20; 30 ]
    (selfs [ span (-1) 0 100; span 0 10 30; span 0 20 50 ])

let test_disjoint_and_contained_children () =
  check (Alcotest.list Alcotest.int) "disjoint" [ 70; 10; 20 ]
    (selfs [ span (-1) 0 100; span 0 0 10; span 0 80 100 ]);
  check (Alcotest.list Alcotest.int) "one child inside another" [ 50; 50; 10 ]
    (selfs [ span (-1) 0 100; span 0 10 60; span 0 20 30 ])

let test_child_clipped_to_parent () =
  check (Alcotest.list Alcotest.int) "child past the parent's end" [ 5; 15 ]
    (selfs [ span (-1) 0 10; span 0 5 20 ])

let test_sum_is_root () =
  (* Without overlapping siblings, a tree's self times add up to its
     root's duration. *)
  let spans =
    [
      span (-1) 0 1000; span 0 100 400; span 1 150 200; span 1 250 390; span 0 400 900;
      span 4 400 900;
    ]
  in
  check Alcotest.int "self times sum to the root" 1000 (List.fold_left ( + ) 0 (selfs spans))

let test_parents_by_containment () =
  let iv = Array.map (fun (a, b) -> (Int64.of_int a, Int64.of_int b)) in
  check (Alcotest.array Alcotest.int) "nesting from intervals"
    [| -1; 0; 1; 0; -1 |]
    (Selftime.parents_by_containment (iv [| (0, 100); (10, 50); (20, 30); (60, 90); (200, 300) |]));
  check (Alcotest.array Alcotest.int) "recorded inner-first" [| 1; -1 |]
    (Selftime.parents_by_containment (iv [| (10, 20); (0, 100) |]));
  check (Alcotest.array Alcotest.int) "equal intervals nest by index" [| -1; 0 |]
    (Selftime.parents_by_containment (iv [| (5, 9); (5, 9) |]))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "top percentile support" `Quick test_top_percentile_support;
          Alcotest.test_case "values" `Quick test_percentile_values;
        ] );
      ( "self time",
        [
          Alcotest.test_case "nested spans" `Quick test_nested;
          Alcotest.test_case "overlapping children" `Quick test_overlapping_children;
          Alcotest.test_case "disjoint and contained" `Quick test_disjoint_and_contained_children;
          Alcotest.test_case "child clipped" `Quick test_child_clipped_to_parent;
          Alcotest.test_case "sum equals root" `Quick test_sum_is_root;
          Alcotest.test_case "parents by containment" `Quick test_parents_by_containment;
        ] );
    ]
