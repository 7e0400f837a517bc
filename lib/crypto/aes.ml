(* FIPS 197. State is column-major: state.(4*c + r) is row r, column c,
   matching the byte order of the input block. *)

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x1b) land 0xff else b

(* GF(2^8) multiplication with the AES polynomial x^8+x^4+x^3+x+1. *)
let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else go (xtime a) (b lsr 1) (if b land 1 = 1 then acc lxor a else acc)
  in
  go a b 0

(* The S-box is the GF inverse followed by the FIPS affine transform
   b ^ rot1(b) ^ rot2(b) ^ rot3(b) ^ rot4(b) ^ 0x63. *)
let sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gmul a b = 1 then inv.(a) <- b
    done
  done;
  let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  Array.map (fun b -> b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63) inv

type key = { rounds : int; rk : int array (* (rounds+1) * 16 bytes *) }

let expand_key key_bytes =
  let nk =
    match String.length key_bytes with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: key must be 16, 24 or 32 bytes"
  in
  let rounds = nk + 6 in
  let words = 4 * (rounds + 1) in
  (* w.(i) is a 4-byte word stored as an int array of bytes. *)
  let w = Array.make_matrix words 4 0 in
  for i = 0 to nk - 1 do
    for j = 0 to 3 do
      w.(i).(j) <- Char.code key_bytes.[(4 * i) + j]
    done
  done;
  let rcon = ref 1 in
  for i = nk to words - 1 do
    let temp = Array.copy w.(i - 1) in
    if i mod nk = 0 then begin
      (* RotWord then SubWord then Rcon. *)
      let t0 = temp.(0) in
      temp.(0) <- sbox.(temp.(1));
      temp.(1) <- sbox.(temp.(2));
      temp.(2) <- sbox.(temp.(3));
      temp.(3) <- sbox.(t0);
      temp.(0) <- temp.(0) lxor !rcon;
      rcon := xtime !rcon
    end
    else if nk > 6 && i mod nk = 4 then
      for j = 0 to 3 do
        temp.(j) <- sbox.(temp.(j))
      done;
    for j = 0 to 3 do
      w.(i).(j) <- w.(i - nk).(j) lxor temp.(j)
    done
  done;
  let rk = Array.make (16 * (rounds + 1)) 0 in
  for i = 0 to words - 1 do
    for j = 0 to 3 do
      rk.((4 * i) + j) <- w.(i).(j)
    done
  done;
  { rounds; rk }

let add_round_key state rk round =
  for i = 0 to 15 do
    state.(i) <- state.(i) lxor rk.((16 * round) + i)
  done

let sub_bytes state =
  for i = 0 to 15 do
    state.(i) <- sbox.(state.(i))
  done

let shift_rows state =
  (* Row r (bytes r, r+4, r+8, r+12) rotates left by r. *)
  for r = 1 to 3 do
    let row = Array.init 4 (fun c -> state.((4 * c) + r)) in
    for c = 0 to 3 do
      state.((4 * c) + r) <- row.((c + r) mod 4)
    done
  done

let mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) in
    let a2 = state.((4 * c) + 2) and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- xtime a0 lxor (xtime a1 lxor a1) lxor a2 lxor a3;
    state.((4 * c) + 1) <- a0 lxor xtime a1 lxor (xtime a2 lxor a2) lxor a3;
    state.((4 * c) + 2) <- a0 lxor a1 lxor xtime a2 lxor (xtime a3 lxor a3);
    state.((4 * c) + 3) <- (xtime a0 lxor a0) lxor a1 lxor a2 lxor xtime a3
  done

let state_of_block block =
  if String.length block <> 16 then invalid_arg "Aes: block must be 16 bytes";
  Array.init 16 (fun i -> Char.code block.[i])

let block_of_state state = String.init 16 (fun i -> Char.chr state.(i))

let encrypt_block key block =
  let state = state_of_block block in
  add_round_key state key.rk 0;
  for round = 1 to key.rounds - 1 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    add_round_key state key.rk round
  done;
  sub_bytes state;
  shift_rows state;
  add_round_key state key.rk key.rounds;
  block_of_state state
