type session_keys = { kdk : string; k_m : string; k_e : string; mac_key : Cmac.key }

let reverse_bytes s = String.init (String.length s) (fun i -> s.[String.length s - 1 - i])

(* The all-zero CMAC key is fixed by the derivation, so prepare it once
   for the whole process, at module initialisation: a shared [lazy]
   forced by two fleet domains at once would raise. *)
let zero_key = Cmac.prepare (String.make 16 '\000')

let kdk_of_shared gab_x =
  if String.length gab_x <> 32 then invalid_arg "Kdf.kdk_of_shared: need 32 bytes";
  (* Intel's derivation feeds the little-endian x-coordinate. *)
  Cmac.mac_with zero_key (reverse_bytes gab_x)

let derive_label ~kdk label = Cmac.mac ~key:kdk ("\x01" ^ label ^ "\x00\x80\x00")

let session_of_shared gab_x =
  let kdk = kdk_of_shared gab_x in
  (* One prepared KDK serves every label derivation. *)
  let key = Cmac.prepare kdk in
  let derive label = Cmac.mac_with key ("\x01" ^ label ^ "\x00\x80\x00") in
  let k_m = derive "SMK" in
  { kdk; k_m; k_e = derive "SK"; mac_key = Cmac.prepare k_m }
