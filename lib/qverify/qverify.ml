module Pauli = Pauli
module Tableau = Tableau
module P = Pauli
module Mat = Mathkit.Mat
open Qcircuit

let c_runs = Qobs.counter "qverify.runs"
let c_gates = Qobs.counter "qverify.gates"
let c_cliffords = Qobs.counter "qverify.cliffords"
let c_rotations = Qobs.counter "qverify.rotations"
let c_merges = Qobs.counter "qverify.merges"
let c_folds = Qobs.counter "qverify.folds"
let c_residues = Qobs.counter "qverify.residues"
let c_clusters = Qobs.counter "qverify.clusters"
let c_not_equivalent = Qobs.counter "qverify.not_equivalent"
let c_unknowns = Qobs.counter "qverify.unknowns"

type location = { segment : string; index : int; gate : string }

type certificate = {
  n_wires : int;
  gates : int;
  cliffords : int;
  rotations : int;
  merges : int;
  folds : int;
  residues : int;
  clusters : int;
  permutation : int array;
}

type verdict =
  | Equivalent of certificate
  | Not_equivalent of { reason : string; location : location option }
  | Unknown of { reason : string }

let verdict_name = function
  | Equivalent _ -> "equivalent"
  | Not_equivalent _ -> "not_equivalent"
  | Unknown _ -> "unknown"

let to_json v =
  match v with
  | Equivalent c ->
      Printf.sprintf
        "{\"kind\":\"verdict\",\"verdict\":\"equivalent\",\"n_wires\":%d,\"gates\":%d,\
         \"cliffords\":%d,\"rotations\":%d,\"merges\":%d,\"folds\":%d,\"residues\":%d,\
         \"clusters\":%d,\"permutation\":[%s]}"
        c.n_wires c.gates c.cliffords c.rotations c.merges c.folds c.residues c.clusters
        (String.concat "," (Array.to_list (Array.map string_of_int c.permutation)))
  | Not_equivalent { reason; location } ->
      let loc =
        match location with
        | None -> ""
        | Some l ->
            Printf.sprintf ",\"segment\":\"%s\",\"index\":%d,\"gate\":\"%s\""
              (Qobs.json_escape l.segment) l.index (Qobs.json_escape l.gate)
      in
      Printf.sprintf "{\"kind\":\"verdict\",\"verdict\":\"not_equivalent\",\"reason\":\"%s\"%s}"
        (Qobs.json_escape reason) loc
  | Unknown { reason } ->
      Printf.sprintf "{\"kind\":\"verdict\",\"verdict\":\"unknown\",\"reason\":\"%s\"}"
        (Qobs.json_escape reason)

(* ---- the sweep state ---- *)

type rot = { angle : float; str : P.t; rloc : location }

(* The budgets and the tolerance.  Exceeding a budget can only produce
   [Unknown], never a wrong verdict.  [scan_budget] bounds the commutation
   scan depth when merging a pushed rotation into the pending list;
   [max_dense] bounds the symplectic dimension (= dense qubits, so
   [2^max_dense] matrices) a residue cluster may occupy; every float
   comparison (angle snapping, dense residue checks) uses [eps]. *)
let scan_budget = 512
let max_dense = 6
let eps = 1e-7

type state = {
  tab : Tableau.t;
  mutable pending : rot list;  (** newest first *)
  mutable gates : int;
  mutable cliffords : int;
  mutable rotations : int;
  mutable merges : int;
  mutable folds : int;
}

exception Fail_not_equiv of string * location option
exception Fail_unknown of string

let two_pi = 2.0 *. Float.pi
let half_pi = 0.5 *. Float.pi

let norm_angle th =
  let r = Float.rem th two_pi in
  if r < 0.0 then r +. two_pi else r

(* snap an angle to the nearest multiple of pi/2 within eps; `Zero means the
   rotation is a global phase, `Quarter k a Clifford rotation *)
let snap eps th =
  let r = norm_angle th in
  let k = int_of_float (Float.round (r /. half_pi)) land 3 in
  if Float.abs (r -. (Float.round (r /. half_pi) *. half_pi)) <= eps then
    if k = 0 then `Zero else `Quarter k
  else `Generic r

(* ---- GF(2) symplectic linear algebra for residue clusters ----

   Strings become vectors in F_2^{2n} (bit 2w = X component on wire w, bit
   2w+1 = Z component), packed into int limbs; independence and span
   queries go through a standard highest-bit xor basis. *)

module Bv = struct
  type t = int array

  let bits_per_limb = 62

  let of_pauli n p : t =
    let v = Array.make (((2 * n) + bits_per_limb - 1) / bits_per_limb) 0 in
    for w = 0 to n - 1 do
      let c = P.code p w in
      if c land 1 <> 0 then begin
        let b = 2 * w in
        v.(b / bits_per_limb) <- v.(b / bits_per_limb) lor (1 lsl (b mod bits_per_limb))
      end;
      if c land 2 <> 0 then begin
        let b = (2 * w) + 1 in
        v.(b / bits_per_limb) <- v.(b / bits_per_limb) lor (1 lsl (b mod bits_per_limb))
      end
    done;
    v

  let xor a b = Array.mapi (fun i x -> x lxor b.(i)) a
  let is_zero v = Array.for_all (fun x -> x = 0) v

  let highest_bit v =
    let rec msb x acc = if x = 0 then acc else msb (x lsr 1) (acc + 1) in
    let rec go i =
      if i < 0 then None
      else if v.(i) = 0 then go (i - 1)
      else Some ((i * bits_per_limb) + msb v.(i) (-1))
    in
    go (Array.length v - 1)
end

(* xor basis with optional combination masks (mask = int bitset over the
   generator indices that sum to the stored vector) *)
type xbasis = { mutable rows : (int * Bv.t * int) list (* msb, vec, mask *) }

let xb_create () = { rows = [] }

(* reduce [v] against the basis; returns the residual and its mask *)
let xb_reduce xb v mask =
  let rec go v mask =
    match Bv.highest_bit v with
    | None -> (v, mask)
    | Some h -> begin
        match List.find_opt (fun (m, _, _) -> m = h) xb.rows with
        | None -> (v, mask)
        | Some (_, bv, bm) -> go (Bv.xor v bv) (mask lxor bm)
      end
  in
  go v mask

let xb_insert xb v mask =
  let v', mask' = xb_reduce xb v mask in
  match Bv.highest_bit v' with
  | None -> `Dependent mask'
  | Some h ->
      xb.rows <- (h, v', mask') :: xb.rows;
      `Independent

(* ---- symplectic Gram-Schmidt over a cluster's strings ----

   Returns hyperbolic pairs (a_i, b_i) and central elements c_j, all
   concrete phase-positive Hermitian strings that are products of the
   inputs, spanning the same subgroup.  Pairs anticommute within
   themselves and commute with everything else; centrals commute with the
   whole span. *)
let sympl_gs n strings =
  let canon p = P.with_phase p 0 in
  let rec go todo pairs centrals central_vecs =
    match todo with
    | [] -> (List.rev pairs, List.rev centrals)
    | a :: rest when P.is_identity_string a -> go rest pairs centrals central_vecs
    | a :: rest -> begin
        match List.partition (fun c -> not (P.commutes a c)) rest with
        | b :: anti, comm ->
            (* (a, b) is a hyperbolic pair; make the remainder commute with
               both: c -> c.b if <c,a> = 1, then c -> c.a if <c,b> = 1 *)
            let fix c =
              let c = if P.commutes c a then c else P.mul c b in
              if P.commutes c b then c else P.mul c a
            in
            go (List.map fix (anti @ comm)) ((canon a, canon b) :: pairs) centrals
              central_vecs
        | [], _ ->
            (* commutes with everything left: central; keep only if
               independent of the centrals found so far (its pairings with
               the hyperbolic part are all zero, so independence is a pure
               central-span question) *)
            let v = Bv.of_pauli n a in
            let xb = xb_create () in
            List.iter (fun cv -> ignore (xb_insert xb cv 0)) central_vecs;
            (match xb_insert xb v 0 with
            | `Dependent _ -> go rest pairs centrals central_vecs
            | `Independent -> go rest pairs (canon a :: centrals) (v :: central_vecs))
      end
  in
  go strings [] [] []

(* the entrywise tolerance of the dense cluster checks below *)
let dense_eps = 1e-6

(* Decode [m] as [zeta . X^a Z^b] (entrywise within [dense_eps]): the xor
   pattern [a], the sign pattern [b] and the unit scalar [zeta], with
   index bit [p] belonging to qubit [nbits - 1 - p] (the {!Circuit.embed}
   convention).  [None] when [m] is not a global phase times a Pauli. *)
let decode_phase_pauli m =
  let eps = dense_eps in
  let dim = Mat.rows m in
  let abs2 z = (z.Complex.re *. z.Complex.re) +. (z.Complex.im *. z.Complex.im) in
  (* xor pattern from column 0 *)
  let a = ref (-1) in
  (try
     for r = 0 to dim - 1 do
       if abs2 (Mat.get m r 0) > 0.25 then
         if !a < 0 then a := r else raise Exit
     done
   with Exit -> a := -2);
  if !a < 0 then None
  else begin
    let a = !a in
    let u = Array.init dim (fun j -> Mat.get m (j lxor a) j) in
    let pattern_ok = ref true in
    for r = 0 to dim - 1 do
      for j = 0 to dim - 1 do
        let e = Mat.get m r j in
        if r = j lxor a then begin
          if Float.abs (abs2 e -. 1.0) > eps then pattern_ok := false
        end
        else if abs2 e > eps *. eps then pattern_ok := false
      done
    done;
    if not !pattern_ok then None
    else begin
      (* entry ratios must follow (-1)^(j & b) for some sign support b *)
      let ratio j = Complex.div u.(j) u.(0) in
      let b = ref 0 in
      let ok = ref true in
      let bits =
        int_of_float (Float.round (Float.log (float_of_int dim) /. Float.log 2.0))
      in
      for p = 0 to bits - 1 do
        let r = ratio (1 lsl p) in
        if Float.abs r.Complex.im > eps then ok := false
        else if r.Complex.re < 0.0 then b := !b lor (1 lsl p)
      done;
      if not !ok then None
      else begin
        let popcount x =
          let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
          go x 0
        in
        try
          for j = 0 to dim - 1 do
            let expect = if popcount (j land !b) land 1 = 1 then -1.0 else 1.0 in
            let r = ratio j in
            if Float.abs (r.Complex.re -. expect) > eps || Float.abs r.Complex.im > eps
            then raise Exit
          done;
          Some (a, !b, u.(0))
        with Exit -> None
      end
    end
  end

(* zeta as a power of i (within [dense_eps]), if it is one *)
let quarter_phase (z : Complex.t) =
  let eps = dense_eps in
  let cand = [ (0, 1.0, 0.0); (1, 0.0, 1.0); (2, -1.0, 0.0); (3, 0.0, -1.0) ] in
  List.find_map
    (fun (d, re, im) ->
      if Float.abs (z.Complex.re -. re) <= eps && Float.abs (z.Complex.im -. im) <= eps
      then Some d
      else None)
    cand

let x2 = Mat.of_real_rows [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ]
let z2 = Mat.of_real_rows [ [ 1.0; 0.0 ]; [ 0.0; -1.0 ] ]

(* resolve one contiguous window of a residue cluster exactly on the
   dense representation of its symplectic span *)
let resolve_window ~others n members =
  let strings = List.map (fun r -> r.str) members in
  let pairs, centrals = sympl_gs n strings in
  let k = List.length pairs in
  let m = k + List.length centrals in
  if m = 0 then `Resolved
  else if m > max_dense then
    (* the cluster spans more than [max_dense] dense qubits *)
    `Unknown
  else begin
    (* basis order is fixed: a_1 b_1 ... a_k b_k c_1 ... c_r, with matrix
       images X_1 Z_1 ... X_k Z_k Z_{k+1} ... Z_m; phases of arbitrary span
       elements are pinned by multiplying concrete strings in this order on
       both sides, which is a genuine homomorphism because the symplectic
       form and the squares of the basis agree by construction *)
    let basis_strs =
      List.concat_map (fun (a, b) -> [ a; b ]) pairs @ centrals
    in
    let basis_mats =
      List.mapi
        (fun i _ ->
          let qubit = if i < 2 * k then i / 2 else i - k in
          let local = if i < 2 * k && i mod 2 = 0 then x2 else z2 in
          Circuit.embed ~n:m local [ qubit ])
        basis_strs
    in
    let basis = List.combine basis_strs basis_mats in
    let pair_list = pairs in
    let central_xb = xb_create () in
    List.iteri
      (fun j c -> ignore (xb_insert central_xb (Bv.of_pauli n c) (1 lsl j)))
      centrals;
    let dim = 1 lsl m in
    let id = Mat.identity dim in
    let rep s =
      (* exponents over the hyperbolic pairs come from symplectic products
         with the partner element; the central residual is solved over the
         central xor basis *)
      let expts = Array.make (List.length basis_strs) false in
      List.iteri
        (fun i (a, b) ->
          if not (P.commutes s b) then expts.(2 * i) <- true;
          if not (P.commutes s a) then expts.(2 * i + 1) <- true)
        pair_list;
      let target = ref (Bv.of_pauli n s) in
      List.iteri
        (fun i (bs, _) ->
          if i < 2 * k && expts.(i) then target := Bv.xor !target (Bv.of_pauli n bs))
        basis;
      let residual, mask = xb_reduce central_xb !target 0 in
      if not (Bv.is_zero residual) then None
      else begin
        for j = 0 to List.length centrals - 1 do
          if mask land (1 lsl j) <> 0 then expts.(2 * k + j) <- true
        done;
        (* multiply strings and matrices in the same fixed order *)
        let f = ref (P.identity n) and mt = ref id in
        List.iteri
          (fun i (bs, bm) ->
            if expts.(i) then begin
              f := P.mul !f bs;
              mt := Mat.mul !mt bm
            end)
          basis;
        if not (P.same_string !f s) then None
        else begin
          let d = (P.phase s - P.phase !f) land 3 in
          let phase =
            match d with
            | 0 -> Complex.one
            | 1 -> Complex.{ re = 0.0; im = 1.0 }
            | 2 -> Complex.{ re = -1.0; im = 0.0 }
            | _ -> Complex.{ re = 0.0; im = -1.0 }
          in
          Some (Mat.scale phase !mt)
        end
      end
    in
    (* product of the cluster's rotations, newest leftmost *)
    let rec product acc = function
      | [] -> Some acc
      | r :: tl -> begin
          match rep r.str with
          | None -> None
          | Some sm ->
              let c = Complex.{ re = cos (r.angle /. 2.0); im = 0.0 }
              and s = Complex.{ re = 0.0; im = -.sin (r.angle /. 2.0) } in
              let rot = Mat.add (Mat.scale c id) (Mat.scale s sm) in
              product (Mat.mul acc rot) tl
        end
    in
    (* conjugation transfer: for a real Pauli Q with pairing bits sigma
       against the basis (sigma_i = <Q, basis_i>), V^dag Q V = Q . A where
       rep(A) = G^dag M^dag G M for the rep-side pattern G whose pairings
       with the rep basis match sigma.  This identity is exact algebra (no
       Clifford assumption); when the matrix decodes as a phase-Pauli in
       the rep image, A is recovered exactly as i^d . F(e). *)
    let sigma_of q =
      List.fold_left
        (fun (i, acc) bs ->
          (i + 1, if P.commutes q bs then acc else acc lor (1 lsl i)))
        (0, 0) basis_strs
      |> snd
    in
    let g_mat sigma =
      (* qubit i < k: Z-exp = sigma bit 2i, X-exp = sigma bit 2i+1;
         central qubit k+j: X-exp = sigma bit 2k+j *)
      let acc = ref id in
      for q = 0 to m - 1 do
        let xe, ze =
          if q < k then (sigma lsr ((2 * q) + 1) land 1, sigma lsr (2 * q) land 1)
          else (sigma lsr (k + q) land 1, 0)
        in
        let local = ref (Mat.identity 2) in
        if xe = 1 then local := Mat.mul !local x2;
        if ze = 1 then local := Mat.mul !local z2;
        if xe + ze > 0 then acc := Mat.mul !acc (Circuit.embed ~n:m !local [ q ])
      done;
      !acc
    in
    match product id members with
    | None -> (* the cluster did not decompose *) `Unknown
    | Some prod ->
        if Mat.equal_up_to_phase ~eps:dense_eps prod id then `Resolved
        else begin
          let adj = Mat.adjoint prod in
          (* decode A for a pairing pattern; None when the conjugate is
             provably outside the Pauli group *)
          let transfer sigma =
            if sigma = 0 then Some (P.identity n)
            else begin
              let g = g_mat sigma in
              let nmat = Mat.mul (Mat.adjoint g) (Mat.mul adj (Mat.mul g prod)) in
              match decode_phase_pauli nmat with
              | None -> None
              | Some (na, nb, zeta) -> begin
                  match quarter_phase zeta with
                  | None -> None
                  | Some d -> begin
                      (* index bit p is qubit m-1-p; rebuild the exponent
                         vector e over the basis order *)
                      let bit pat q = (pat lsr (m - 1 - q)) land 1 in
                      let ok = ref true in
                      let expts = Array.make (List.length basis_strs) false in
                      for q = 0 to m - 1 do
                        if q < k then begin
                          if bit na q = 1 then expts.(2 * q) <- true;
                          if bit nb q = 1 then expts.((2 * q) + 1) <- true
                        end
                        else begin
                          (* rep image is Z-only on central qubits *)
                          if bit na q = 1 then ok := false;
                          if bit nb q = 1 then expts.(k + q) <- true
                        end
                      done;
                      if not !ok then None
                      else begin
                        let f = ref (P.identity n) in
                        List.iteri
                          (fun i bs -> if expts.(i) then f := P.mul !f bs)
                          basis_strs;
                        Some (P.mul_phase !f d)
                      end
                    end
                end
            end
          in
          (* all 2m single-generator patterns must transfer; products of
             decodable conjugates decode, so this is complete *)
          let patterns =
            (* sigma patterns of the rep generators X_q / Z_q: X_q pairs
               only with rep Z_q, i.e. basis b_q (pairs) or c_{q-k}
               (centrals); Z_q pairs only with rep X_q, i.e. basis a_q
               (pairs) *)
            List.concat
              (List.init m (fun q ->
                   if q < k then [ 1 lsl ((2 * q) + 1); 1 lsl (2 * q) ]
                   else [ 1 lsl (k + q) ]))
          in
          (* which rep-generator conjugations are sound witnesses?  Pair
             directions and central Z always are (they are images of real
             span elements).  The X direction of central j stands for a
             real partner Pauli pairing 1 with c_j and 0 with everything
             else in the residue set; it exists iff c_j is independent of
             the span of (other clusters' members + this cluster's other
             basis elements). *)
          let central_x_sound =
            List.mapi
              (fun j cj ->
                let xb = xb_create () in
                List.iter (fun v -> ignore (xb_insert xb v 0)) others;
                List.iteri
                  (fun i bs ->
                    if i <> (2 * k) + j then
                      ignore (xb_insert xb (Bv.of_pauli n bs) 0))
                  basis_strs;
                ignore cj;
                match xb_insert xb (Bv.of_pauli n (List.nth centrals j)) 0 with
                | `Independent -> true
                | `Dependent _ -> false)
              centrals
          in
          let g_checks =
            (* (generator matrix, is the witness sound?) *)
            List.concat
              (List.init m (fun q ->
                   let x = Circuit.embed ~n:m x2 [ q ]
                   and z = Circuit.embed ~n:m z2 [ q ] in
                   if q < k then [ (x, true); (z, true) ]
                   else [ (x, List.nth central_x_sound (q - k)); (z, true) ]))
          in
          let bad = ref false and tainted = ref false in
          List.iter
            (fun (g, sound) ->
              if not !bad then
                let c = Mat.mul adj (Mat.mul g prod) in
                if decode_phase_pauli c = None then
                  if sound then bad := true else tainted := true)
            g_checks;
          if !bad then `Non_clifford
          else if !tainted then
            (* entangled with other residues *) `Unknown
          else begin
            (* the residual is a genuine Clifford on the cluster span: it
               can be absorbed into the frame exactly.  Precheck the
               single-generator transfers so later row rewrites cannot
               fail *)
            if List.exists (fun sg -> transfer sg = None) patterns then
              (* a residual Clifford cluster that did not decode *) `Unknown
            else begin
              let cache = Hashtbl.create 16 in
              let rewrite q =
                let sigma = sigma_of q in
                match Hashtbl.find_opt cache sigma with
                | Some (Some a) -> P.mul q a
                | Some None -> raise (Fail_unknown "residual Clifford transfer failed")
                | None -> begin
                    let a = transfer sigma in
                    Hashtbl.replace cache sigma a;
                    match a with
                    | Some a -> P.mul q a
                    | None -> raise (Fail_unknown "residual Clifford transfer failed")
                  end
              in
              `Clifford rewrite
            end
          end
        end
  end

(* ---- symbolic Heisenberg propagation for oversized residues ---- *)

(* Conjugate one Pauli term-by-term through a rotation list:
   e^{i t/2 S} Q e^{-i t/2 S} = Q when [Q,S] = 0, else
   cos t . Q - i sin t . (Q S).  The expansion is exact (up to float
   rounding) and only grows when the residue genuinely entangles many
   virtual qubits; past [terms_cap] live terms we give up with [None]
   (-> Unknown), never a wrong answer.  Used when a residue cluster's
   symplectic span exceeds the dense bound: the final permutation test
   only needs each frame row's image under the residue, not the residue
   itself, so no dense representation is ever built. *)
let propagate ~terms_cap members p0 =
  let open Complex in
  let bare p = P.with_phase p 0 in
  (* i^k *)
  let quarter k = match k land 3 with
    | 0 -> one
    | 1 -> i
    | 2 -> { re = -1.0; im = 0.0 }
    | _ -> { re = 0.0; im = -1.0 }
  in
  let terms = Hashtbl.create 64 in
  let add tbl b c =
    let k = P.to_string b in
    let c = match Hashtbl.find_opt tbl k with
      | None -> c
      | Some (_, c0) -> Complex.add c0 c
    in
    if Complex.norm c < 1e-14 then Hashtbl.remove tbl k else Hashtbl.replace tbl k (b, c)
  in
  add terms (bare p0) (quarter (P.phase p0));
  try
    List.iter
      (fun r ->
        let s = r.str in
        let next = Hashtbl.create (2 * Hashtbl.length terms) in
        Hashtbl.iter
          (fun _ (b, c) ->
            if P.commutes b s then add next b c
            else begin
              let ct = cos r.angle and st = sin r.angle in
              add next b (Complex.mul c { re = ct; im = 0.0 });
              let m = P.mul b s in
              (* -i sin t . i^{phase(b.s)} *)
              let w = Complex.mul (quarter (3 + P.phase m)) { re = st; im = 0.0 } in
              add next (bare m) (Complex.mul c w)
            end)
          terms;
        if Hashtbl.length next > terms_cap then raise Exit;
        Hashtbl.reset terms;
        Hashtbl.iter (fun k v -> Hashtbl.replace terms k v) next)
      members;
    Some (Hashtbl.fold (fun _ v acc -> v :: acc) terms [])
  with Exit -> None

(* Collapse test: the image must be one Pauli with coefficient +1.
   [`Pauli b] when it is, [`Mixed] when it provably is not (some other
   term carries weight >= eps, or the dominant coefficient is not +1),
   [`Grey] when float dust makes the call unsafe. *)
let collapsed ~eps terms =
  match List.sort (fun (_, c1) (_, c2) -> compare (Complex.norm c2) (Complex.norm c1)) terms with
  | [] -> `Mixed
  | (b, c) :: rest ->
      let rest_big = List.exists (fun (_, c') -> Complex.norm c' >= eps) rest in
      if rest_big then `Mixed
      else if List.exists (fun (_, c') -> Complex.norm c' >= 1e-12) rest then `Grey
      else if Complex.norm (Complex.sub c Complex.one) < eps then `Pauli b
      else if Complex.norm (Complex.sub c Complex.one) < 1e-3 then `Grey
      else `Mixed

(* ---- pushing rotations through the frame ---- *)

(* the merge scan result: a same-string partner with only commuting
   strings in between, a definite anticommuting blocker, or nothing *)
let rec scan_pending budget s depth before rest =
  match rest with
  | r :: tl when depth < budget ->
      if P.same_string r.str s then `Found (before, r, tl)
      else if P.commutes r.str s then scan_pending budget s (depth + 1) (r :: before) tl
      else `Blocked
  | _ -> `Not_found

let push_rotation st loc theta codes =
  match snap eps theta with
  | `Zero -> ()
  | `Quarter k ->
      st.cliffords <- st.cliffords + 1;
      Tableau.fold_local st.tab ~quarters:k codes
  | `Generic th ->
      st.rotations <- st.rotations + 1;
      let s = Tableau.image_local st.tab codes in
      let th, s =
        match P.phase s with
        | 0 -> (th, s)
        | 2 -> (-.th, P.with_phase s 0)
        | _ -> assert false (* images of Hermitian axes stay Hermitian *)
      in
      let prepend () = st.pending <- { angle = th; str = s; rloc = loc } :: st.pending in
      begin
        match scan_pending scan_budget s 0 [] st.pending with
        | `Not_found | `Blocked -> prepend ()
        | `Found (before, r, tl) -> begin
            st.merges <- st.merges + 1;
            match snap eps (r.angle +. th) with
            | `Zero -> st.pending <- List.rev_append before tl
            | `Quarter k ->
                (* the merged rotation turned Clifford: it commutes with
                   every newer pending rotation (the scan passed them), so
                   it folds into the frame from the right *)
                st.folds <- st.folds + 1;
                st.pending <- List.rev_append before tl;
                Tableau.fold_frame st.tab ~quarters:k s
            | `Generic a ->
                st.pending <- List.rev_append before ({ r with angle = a } :: tl)
          end
      end

let clifford st g qs =
  st.cliffords <- st.cliffords + 1;
  Tableau.apply st.tab g qs

let rec process st loc (g, qs) =
  match ((g : Qgate.Gate.t), qs) with
  | (Id | Barrier _ | Measure), _ -> ()
  | X, [ q ] -> clifford st Tableau.X [ q ]
  | Y, [ q ] -> clifford st Tableau.Y [ q ]
  | Z, [ q ] -> clifford st Tableau.Z [ q ]
  | H, [ q ] -> clifford st Tableau.H [ q ]
  | S, [ q ] -> clifford st Tableau.S [ q ]
  | Sdg, [ q ] -> clifford st Tableau.Sdg [ q ]
  | SX, [ q ] -> clifford st Tableau.SX [ q ]
  | SXdg, [ q ] -> clifford st Tableau.SXdg [ q ]
  | CX, [ c; t ] -> clifford st Tableau.CX [ c; t ]
  | CY, [ c; t ] -> clifford st Tableau.CY [ c; t ]
  | CZ, [ c; t ] -> clifford st Tableau.CZ [ c; t ]
  | SWAP, [ a; b ] -> clifford st Tableau.SWAP [ a; b ]
  | T, [ q ] -> push_rotation st loc (Float.pi /. 4.0) [ (q, 2) ]
  | Tdg, [ q ] -> push_rotation st loc (-.Float.pi /. 4.0) [ (q, 2) ]
  | RX a, [ q ] -> push_rotation st loc a [ (q, 1) ]
  | RY a, [ q ] -> push_rotation st loc a [ (q, 3) ]
  | RZ a, [ q ] -> push_rotation st loc a [ (q, 2) ]
  | P a, [ q ] -> push_rotation st loc a [ (q, 2) ]
  | U (t, p, l), [ q ] ->
      (* U = e^{i phase} RZ(p) RY(t) RZ(l): lam first, then theta, then phi *)
      push_rotation st loc l [ (q, 2) ];
      push_rotation st loc t [ (q, 3) ];
      push_rotation st loc p [ (q, 2) ]
  | RZZ a, [ c; t ] -> push_rotation st loc a [ (c, 2); (t, 2) ]
  | Unitary2 _, _ ->
      raise
        (Fail_unknown
           (Printf.sprintf "raw unitary block at %s[%d] is outside the symbolic gate set"
              loc.segment loc.index))
  | (CH | CRX _ | CRY _ | CRZ _ | CP _ | CCX | CCZ | CSWAP | MCX _ | MCZ _), qs ->
      List.iter (process st loc) (Qgate.Decompose.lower (g, qs))
  | g, qs ->
      raise
        (Fail_unknown
           (Printf.sprintf "unsupported gate %s/%d at %s[%d]" (Qgate.Gate.name g)
              (List.length qs) loc.segment loc.index))

(* partition surviving rotations into clusters under anticommutation:
   strings in different clusters all commute, which is what licenses the
   per-cluster factorization of the residue product *)
let clusters_of (rots : rot array) =
  let m = Array.length rots in
  let parent = Array.init m (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      if not (P.commutes rots.(i).str rots.(j).str) then union i j
    done
  done;
  let tbl = Hashtbl.create 8 in
  for i = m - 1 downto 0 do
    (* downto: member lists come out newest-first (ascending i) *)
    let r = find i in
    Hashtbl.replace tbl r (i :: (try Hashtbl.find tbl r with Not_found -> []))
  done;
  Hashtbl.fold (fun _ members acc -> List.map (fun i -> rots.(i)) members :: acc) tbl []

(* ---- driver ---- *)

let check_layout ~what ~n_log ~n_phys a =
  if Array.length a <> n_log then
    invalid_arg
      (Printf.sprintf "Qverify: %s has %d entries for %d logical qubits" what
         (Array.length a) n_log);
  let seen = Array.make n_phys false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n_phys then
        invalid_arg (Printf.sprintf "Qverify: %s wire %d out of range" what p);
      if seen.(p) then invalid_arg (Printf.sprintf "Qverify: %s repeats wire %d" what p);
      seen.(p) <- true)
    a

let verify_routed ~original ~routed ?initial_layout ?final_layout () =
  Qobs.incr c_runs;
  let n_log = Circuit.n_qubits original and n_phys = Circuit.n_qubits routed in
  if n_log > n_phys then
    invalid_arg "Qverify: original circuit is wider than the routed circuit";
  let il = match initial_layout with Some a -> a | None -> Array.init n_log Fun.id in
  let fl = match final_layout with Some a -> a | None -> Array.init n_log Fun.id in
  check_layout ~what:"initial layout" ~n_log ~n_phys il;
  check_layout ~what:"final layout" ~n_log ~n_phys fl;
  let st =
    {
      tab = Tableau.create n_phys;
      pending = [];
      gates = 0;
      cliffords = 0;
      rotations = 0;
      merges = 0;
      folds = 0;
    }
  in
  let finish v =
    Qobs.add c_gates st.gates;
    Qobs.add c_cliffords st.cliffords;
    Qobs.add c_rotations st.rotations;
    Qobs.add c_merges st.merges;
    Qobs.add c_folds st.folds;
    (match v with
    | Not_equivalent _ -> Qobs.incr c_not_equivalent
    | Unknown _ -> Qobs.incr c_unknowns
    | Equivalent _ -> ());
    v
  in
  try
    (* the composite W = routed . embed(original^-1): if routing is correct
       W is exactly the wire permutation the layouts prescribe *)
    let inv = Circuit.lift (Circuit.inverse original) ~n:n_phys ~map:il in
    let inv_len = List.length (Circuit.instrs inv) in
    let sweep segment ?(flip = 0) c =
      List.iteri
        (fun i (instr : Circuit.instr) ->
          let index = if flip > 0 then flip - 1 - i else i in
          let loc = { segment; index; gate = Qgate.Gate.name instr.gate } in
          (match instr.gate with
          | Qgate.Gate.Id | Qgate.Gate.Barrier _ | Qgate.Gate.Measure -> ()
          | _ -> st.gates <- st.gates + 1);
          process st loc (instr.gate, instr.qubits))
        (Circuit.instrs c)
    in
    sweep "original" ~flip:inv_len inv;
    sweep "routed" routed;
    (* residues: rotations the commutation scan could not cancel *)
    let residues = Array.of_list (List.rev (List.rev st.pending)) in
    let n_residues = Array.length residues in
    Qobs.add c_residues n_residues;
    let n_clusters = ref 0 in
    let deferred = ref [] in
    if n_residues > 0 then begin
      let clusters = clusters_of residues in
      List.iter
        (fun members ->
          incr n_clusters;
          Qobs.incr c_clusters;
          let others =
            List.concat_map
              (fun ms ->
                if ms == members then []
                else List.map (fun r -> Bv.of_pauli n_phys r.str) ms)
              clusters
          in
          match resolve_window ~others n_phys members with
          | `Resolved -> ()
          | `Clifford rewrite ->
              (* absorb the residual Clifford into the frame: every row
                 Q becomes Q . A(Q) *)
              st.folds <- st.folds + 1;
              Tableau.map_rows st.tab rewrite
          | `Non_clifford ->
              let first = List.nth members (List.length members - 1) in
              raise
                (Fail_not_equiv
                   ( Printf.sprintf
                       "non-Clifford rotation residue about %s (angle %g) does not cancel"
                       (P.to_string first.str) first.angle,
                     Some first.rloc ))
          | `Unknown ->
              (* the dense bound gave up on this cluster: defer its
                 leftover to symbolic row propagation at the final
                 permutation test (clusters commute, so deferred
                 leftovers concatenate in any cluster order) *)
              deferred := !deferred @ members)
        clusters
    end;
    (* the frame (with any deferred residue conjugated through) must now
       be exactly the layout-prescribed permutation *)
    let residue_tail = !deferred in
    let perm =
      match residue_tail with
      | [] ->
          Tableau.permutation n_phys (fun w ->
              (Tableau.row_x st.tab w, Tableau.row_z st.tab w))
      | _ -> (
          let cap = 4096 in
          let img p =
            match propagate ~terms_cap:cap residue_tail p with
            | None ->
                raise
                  (Fail_unknown
                     (Printf.sprintf "residual row expansion exceeded %d terms" cap))
            | Some terms -> (
                match collapsed ~eps terms with
                | `Pauli b -> b
                | `Grey ->
                    raise (Fail_unknown "residual row image is numerically ambiguous")
                | `Mixed -> raise Exit)
          in
          try
            Tableau.permutation n_phys (fun w ->
                let rx = img (Tableau.row_x st.tab w) and rz = img (Tableau.row_z st.tab w) in
                (rx, rz))
          with Exit -> Error 0)
    in
    match perm with
    | Error w ->
        let reason =
          if residue_tail <> [] then
            "final frame conjugated through the residual rotations is not a wire \
             permutation"
          else
            Printf.sprintf "final frame is not a wire permutation: wire %d maps to %s / %s" w
              (P.to_string (Tableau.row_x st.tab w))
              (P.to_string (Tableau.row_z st.tab w))
        in
        finish (Not_equivalent { reason; location = None })
    | Ok tau ->
        let bad = ref None in
        for l = 0 to n_log - 1 do
          if !bad = None && tau.(fl.(l)) <> il.(l) then bad := Some l
        done;
        (match !bad with
        | Some l ->
            finish
              (Not_equivalent
                 {
                   reason =
                     Printf.sprintf
                       "wire permutation contradicts the layouts: logical %d starts at \
                        wire %d but the composite returns it to wire %d"
                       l il.(l)
                       tau.(fl.(l));
                   location = None;
                 })
        | None ->
            finish
              (Equivalent
                 {
                   n_wires = n_phys;
                   gates = st.gates;
                   cliffords = st.cliffords;
                   rotations = st.rotations;
                   merges = st.merges;
                   folds = st.folds;
                   residues = n_residues;
                   clusters = !n_clusters;
                   permutation = tau;
                 }))
  with
  | Fail_not_equiv (reason, location) -> finish (Not_equivalent { reason; location })
  | Fail_unknown reason -> finish (Unknown { reason })

let verify_pair a b =
  if Circuit.n_qubits a <> Circuit.n_qubits b then
    invalid_arg "Qverify.verify_pair: wire-count mismatch";
  verify_routed ~original:a ~routed:b ()
