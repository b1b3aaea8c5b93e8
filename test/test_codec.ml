(* Wire-format tests: varints, length-prefixed fields, containers, and
   total decoding of adversarial input. *)

module Wire = Dd_codec.Wire

let roundtrip put get v =
  let w = Wire.writer () in
  put w v;
  match Wire.decode (Wire.contents w) get with
  | Some v' -> v'
  | None -> Alcotest.fail "decode failed"

let test_varint_values () =
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (roundtrip Wire.put_varint Wire.get_varint v))
    [ 0; 1; 127; 128; 129; 300; 16383; 16384; 1_000_000; max_int / 2; max_int ]

(* Nine bytes whose last one sets bit 62 would decode to a negative int;
   the decoder must refuse them rather than hand a negative length,
   request id or channel to code that re-encodes it. *)
let test_varint_sign_bit_rejected () =
  let nine last = String.make 8 '\xff' ^ String.make 1 (Char.chr last) in
  Alcotest.(check (option int)) "max_int still decodes" (Some max_int)
    (Wire.decode (nine 0x3f) Wire.get_varint);
  Alcotest.(check (option int)) "bit 62 rejected" None
    (Wire.decode (nine 0x7f) Wire.get_varint);
  Alcotest.(check (option int)) "bit 62 alone rejected" None
    (Wire.decode (String.make 8 '\x80' ^ "\x40") Wire.get_varint)

let test_varint_negative_rejected () =
  let w = Wire.writer () in
  Alcotest.check_raises "negative" (Invalid_argument "Wire.put_varint: negative")
    (fun () -> Wire.put_varint w (-1))

let test_bytes_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "bytes" s (roundtrip Wire.put_bytes Wire.get_bytes s))
    [ ""; "a"; String.make 1000 'x'; "\x00\xff\x80binary\n" ]

let test_bool () =
  Alcotest.(check bool) "true" true (roundtrip Wire.put_bool Wire.get_bool true);
  Alcotest.(check bool) "false" false (roundtrip Wire.put_bool Wire.get_bool false);
  (* 2 is not a bool *)
  let w = Wire.writer () in
  Wire.put_varint w 2;
  Alcotest.(check bool) "bad bool" true (Wire.decode (Wire.contents w) Wire.get_bool = None)

let test_containers () =
  let l = [ "a"; "bb"; "" ] in
  Alcotest.(check (list string)) "list" l
    (roundtrip (fun w -> Wire.put_list w Wire.put_bytes) (fun r -> Wire.get_list r Wire.get_bytes) l);
  let a = [| 1; 2; 300 |] in
  Alcotest.(check (array int)) "array" a
    (roundtrip (fun w -> Wire.put_array w Wire.put_varint)
       (fun r -> Wire.get_array r Wire.get_varint) a);
  Alcotest.(check (option string)) "some" (Some "x")
    (roundtrip (fun w -> Wire.put_option w Wire.put_bytes)
       (fun r -> Wire.get_option r Wire.get_bytes) (Some "x"));
  Alcotest.(check (option string)) "none" None
    (roundtrip (fun w -> Wire.put_option w Wire.put_bytes)
       (fun r -> Wire.get_option r Wire.get_bytes) None)

let test_truncation_safe () =
  let w = Wire.writer () in
  Wire.put_bytes w "hello world";
  let full = Wire.contents w in
  for cut = 0 to String.length full - 1 do
    match Wire.decode (String.sub full 0 cut) Wire.get_bytes with
    | Some _ -> Alcotest.failf "truncated frame at %d decoded" cut
    | None -> ()
  done

let test_trailing_rejected () =
  let w = Wire.writer () in
  Wire.put_varint w 5;
  Alcotest.(check bool) "trailing bytes rejected" true
    (Wire.decode (Wire.contents w ^ "x") Wire.get_varint = None)

let test_hostile_length () =
  (* a length prefix far beyond the buffer must not allocate/crash *)
  let w = Wire.writer () in
  Wire.put_varint w 1_000_000_000;
  let data = Wire.contents w in
  Alcotest.(check bool) "huge bytes length" true (Wire.decode data Wire.get_bytes = None);
  Alcotest.(check bool) "huge list length" true
    (Wire.decode data (fun r -> Wire.get_list r Wire.get_varint) = None)

let prop_fuzz_never_raises =
  QCheck.Test.make ~name:"decoder is total on random bytes" ~count:1000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 50))
    (fun s ->
       (* any of these may return None, but none may raise *)
       ignore (Wire.decode s Wire.get_varint);
       ignore (Wire.decode s Wire.get_bytes);
       ignore (Wire.decode s (fun r -> Wire.get_list r Wire.get_bytes));
       ignore (Wire.decode s (fun r ->
           let a = Wire.get_varint r in
           let b = Wire.get_bytes r in
           let c = Wire.get_option r Wire.get_bool in
           (a, b, c)));
       true)

let prop_roundtrip_structured =
  QCheck.Test.make ~name:"structured roundtrip" ~count:300
    QCheck.(triple (int_range 0 1_000_000) (string_of_size (QCheck.Gen.int_range 0 30))
              (list_of_size (QCheck.Gen.int_range 0 10) (int_range 0 10000)))
    (fun (a, b, l) ->
       let w = Wire.writer () in
       Wire.put_varint w a;
       Wire.put_bytes w b;
       Wire.put_list w Wire.put_varint l;
       match
         Wire.decode (Wire.contents w) (fun r ->
             let a = Wire.get_varint r in
             let b = Wire.get_bytes r in
             let l = Wire.get_list r Wire.get_varint in
             (a, b, l))
       with
       | Some (a', b', l') -> a = a' && b = b' && l = l'
       | None -> false)

let () =
  Alcotest.run "codec"
    [ ("wire",
       [ Alcotest.test_case "varint values" `Quick test_varint_values;
         Alcotest.test_case "negative varint" `Quick test_varint_negative_rejected;
         Alcotest.test_case "sign-bit varint" `Quick test_varint_sign_bit_rejected;
         Alcotest.test_case "bytes" `Quick test_bytes_roundtrip;
         Alcotest.test_case "bool" `Quick test_bool;
         Alcotest.test_case "containers" `Quick test_containers;
         Alcotest.test_case "truncation" `Quick test_truncation_safe;
         Alcotest.test_case "trailing bytes" `Quick test_trailing_rejected;
         Alcotest.test_case "hostile lengths" `Quick test_hostile_length ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest [ prop_fuzz_never_raises; prop_roundtrip_structured ]) ]
