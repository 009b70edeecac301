open Xdp.Build
module Space = Xdp_search.Space
module Dist = Xdp_dist.Dist
module Grid = Xdp_dist.Grid
module Tensor = Xdp_util.Tensor

let eta = 1.0 /. 1024.0
let in_val i j = float_of_int ((i + (2 * j)) mod 7)

let init name idx =
  match (name, idx) with
  | "IN", [ i; j ] -> in_val i j
  | _ ->
      (* weight arrays W<l> start at 1.0; scratch (incl. WC<l>) at 0 *)
      if
        String.length name >= 2
        && name.[0] = 'W'
        && name.[1] >= '0'
        && name.[1] <= '9'
      then 1.0
      else 0.0

(* ------------------------------------------------------------------ *)

(* An endpoint group as the IL addresses it: one stage's data-parallel
   peers, or the whole machine. *)
type group = {
  guard : Xdp.Ir.stmt list -> Xdp.Ir.stmt list;  (** run on the members *)
  own : Xdp.Ir.expr;  (** my 1-based index in the group *)
  own0 : Xdp.Ir.expr;  (** the same, 0-based *)
  var : string;  (** loop variable over the members *)
  pid : Xdp.Ir.expr -> Xdp.Ir.expr;
  rows : Xdp.Ir.expr -> Xdp.Ir.dim_sel;  (** a member's row block *)
  cols : Xdp.Ir.expr -> Xdp.Ir.dim_sel;  (** a member's feature block *)
  slot : Xdp.Ir.expr list;  (** the stage index of stage-held arrays *)
}

let build (cfg : Space.config) (pl : Space.placement) =
  (match Space.validate cfg pl with
  | Ok () -> ()
  | Error e -> invalid_arg ("Dlstack.build: " ^ e));
  let p = cfg.procs
  and bsz = cfg.batch
  and d = cfg.dim
  and nl = cfg.nlayers in
  let dp = pl.dp and pp = pl.pp in
  let bpd = bsz / dp and bpp = bsz / p in
  (* feature blocks exist only when a Col/Wshard spec forced dim|dp *)
  let dpd = if d mod dp = 0 then d / dp else 0 in
  let mesh = Grid.make [ pp; dp ] and machine = Grid.make [ p ] in
  let name prefix l = prefix ^ string_of_int l in
  (* mesh coordinates: pid = stage * dp + peer, peers 1-based *)
  let c0 s = mypid -: i ((s * dp) + 1) in
  let cpeer s = c0 s +: i 1 in
  let in_stage s body =
    ((mypid >=: i ((s * dp) + 1)) &&: (mypid <=: i ((s + 1) * dp))) @: body
  in
  let rows_of qv = slice (((qv -: i 1) *: i bpd) +: i 1) (qv *: i bpd) in
  let cols_of qv = slice (((qv -: i 1) *: i dpd) +: i 1) (qv *: i dpd) in
  let mrows_of mv = slice (((mv -: i 1) *: i bpp) +: i 1) (mv *: i bpp) in
  let rlo s = (c0 s *: i bpd) +: i 1 and rhi s = cpeer s *: i bpd in
  let clo s = (c0 s *: i dpd) +: i 1 and chi s = cpeer s *: i dpd in
  let mlo = ((mypid -: i 1) *: i bpp) +: i 1 and mhi = mypid *: i bpp in
  let iv = var "ii" and jv = var "jj" and qv = var "q" in

  (* ---------------- rendering Space.comm descriptors ---------------- *)
  let group (sd : Space.side) =
    match sd.group with
    | Some s ->
        {
          guard = (fun body -> [ in_stage s body ]);
          own = cpeer s;
          own0 = c0 s;
          var = "q";
          pid = (fun qv -> i (s * dp) +: qv);
          rows = rows_of;
          cols = cols_of;
          slot = [ i (s + 1) ];
        }
    | None ->
        {
          guard = Fun.id;
          own = mypid;
          own0 = mypid -: i 1;
          var = "m";
          pid = Fun.id;
          rows = mrows_of;
          cols = (fun _ -> all);
          slot = [];
        }
  in
  (* the indices naming member [m]'s copy, before the data dimensions *)
  let prefix g (sd : Space.side) m =
    g.slot @ if sd.indexed then [ m ] else []
  in
  let section arr g sd m dims = sec arr (List.map at (prefix g sd m) @ dims) in
  let read arr g sd m iv jv = elem arr (prefix g sd m @ [ iv; jv ]) in
  let own_block arr g (sd : Space.side) =
    section arr g sd g.own
      [
        (if sd.rows then g.rows g.own else all);
        (if sd.cols then g.cols g.own else all);
      ]
  in
  (* the piece a message from sender [sv] to receiver [rv] carries *)
  let block gs gd ~sv ~rv sel = function
    | Space.Src_block -> sel gs sv
    | Space.Dst_block -> sel gd rv
    | Space.Whole -> all
  in
  (* Activations: the senders' statements, then the receivers'.  Each
     side names its one partner or loops over its partners. *)
  let transfer (c : Space.comm) src dst =
    let gs = group c.src and gd = group c.dst in
    let ns = c.src.peers and nd = c.dst.peers in
    let to_, from_ =
      match c.pattern with
      | Space.All_pairs ->
          ( `Loop (gd.var, i 1, i nd, var gd.var),
            `Loop (gs.var, i 1, i ns, var gs.var) )
      | _ when ns = nd -> (`One gs.own, `One gd.own)
      | _ when ns > nd ->
          (* each receiver's block holds [r] senders' blocks *)
          let r = ns / nd in
          let fine = (gd.own0 *: i r) +: i 1 in
          ( `One ((gs.own0 /: i r) +: i 1),
            `Loop (gs.var, fine, gd.own *: i r, var gs.var) )
      | _ when c.src.indexed ->
          (* replica q serves the receivers congruent to q mod ns *)
          let r = nd / ns in
          ( `Loop ("k", i 1, i r, ((var "k" -: i 1) *: i ns) +: gs.own),
            `One ((gd.own0 %: i ns) +: i 1) )
      | _ ->
          (* each sender's block holds [r] receivers' blocks *)
          let r = nd / ns in
          let fine = (gs.own0 *: i r) +: i 1 in
          ( `Loop (gd.var, fine, gs.own *: i r, var gd.var),
            `One ((gd.own0 /: i r) +: i 1) )
    in
    let over ps f =
      match ps with
      | `One e -> f e
      | `Loop (v, lo, hi, e) -> loop v lo hi [ f e ]
    in
    let pr, pc = Space.pieces c in
    let piece ~sv ~rv =
      [
        block gs gd ~sv ~rv (fun g -> g.rows) pr;
        block gs gd ~sv ~rv (fun g -> g.cols) pc;
      ]
    in
    let from sv rv = section src gs c.src sv (piece ~sv ~rv) in
    gs.guard [ over to_ (fun rv -> send_to (from gs.own rv) [ gd.pid rv ]) ]
    @ gd.guard
        [
          over from_ (fun sv ->
              recv
                ~into:(section dst gd c.dst gd.own (piece ~sv ~rv:gd.own))
                ~from:(from sv gd.own));
        ]
  in
  (* Vectors among one stage's peers, every q <> me: pieces of [src]
     land in [buf] under the receiver's index, and under the sender's
     too when [per_sender]. *)
  let exchange (c : Space.comm) src buf ~per_sender =
    let g = group c.src in
    let _, pc = Space.pieces c in
    let piece ~sv ~rv = block g g ~sv ~rv (fun g -> g.cols) pc in
    let from sv rv = section src g c.src sv [ piece ~sv ~rv ] in
    let others body =
      loop "q" (i 1) (i c.src.peers) [ if_ (qv <>: g.own) body [] ]
    in
    [
      others [ send_to (from g.own qv) [ g.pid qv ] ];
      others
        [
          recv
            ~into:
              (section buf g c.dst g.own
                 ((if per_sender then [ at qv ] else [])
                 @ [ piece ~sv:qv ~rv:g.own ]))
            ~from:(from qv g.own);
        ];
    ]
  in
  let grad_buf l (c : Space.comm) =
    name (if c.dst.cols then "GS" else "GA") l
  in

  (* ---------------- declarations ---------------- *)
  let vec3 name =
    decl ~name ~shape:[ pp; dp; d ]
      ~dist:[ Dist.Block; Dist.Block; Dist.Star ]
      ~grid:mesh ()
  in
  let act_decl name = function
    | Space.Row ->
        decl ~name ~shape:[ pp; bsz; d ]
          ~dist:[ Dist.Block; Dist.Block; Dist.Star ]
          ~grid:mesh ()
    | Space.Col ->
        decl ~name ~shape:[ pp; bsz; d ]
          ~dist:[ Dist.Block; Dist.Star; Dist.Block ]
          ~grid:mesh ()
    | Space.Repl ->
        decl ~name ~shape:[ pp; dp; bsz; d ]
          ~dist:[ Dist.Block; Dist.Block; Dist.Star; Dist.Star ]
          ~grid:mesh ()
  in
  let machine_decl name =
    decl ~name ~shape:[ bsz; d ]
      ~dist:[ Dist.Block; Dist.Star ]
      ~grid:machine ()
  in
  let decls = ref [ machine_decl "OUT"; machine_decl "IN" ] in
  let push dl = decls := dl :: !decls in
  let stmts = ref [] in
  let emit s = stmts := s :: !stmts in

  for l = 1 to nl do
    let sp = pl.layers.(l - 1) in
    let s = sp.stage in
    let slot = i (s + 1) in
    let x = name "X" l and w = name "W" l and gp = name "GP" l in
    let input = Space.boundary cfg pl (l - 1) in
    let weights = Space.weights cfg pl sp in
    let gradient = Space.gradient cfg pl sp in
    let g = group input.dst and act = input.dst in

    push (act_decl x sp.act);
    if not (Space.local input) then push (act_decl (name "C" l) sp.act);
    push
      (match sp.wgt with
      | Space.Wshard ->
          decl ~name:w ~shape:[ pp; d ]
            ~dist:[ Dist.Block; Dist.Block ]
            ~grid:mesh ()
      | Space.Wrepl -> vec3 w);
    if weights <> None then push (vec3 (name "WC" l));
    push (vec3 gp);
    (match gradient with
    | Some { pattern = Space.Rooted; _ } ->
        (* rooted-tree scratch: partials and the total live on the
           stage root (a whole-extent block-cyclic dimension) *)
        push
          (decl ~name:(name "GR" l) ~shape:[ pp; dp; d ]
             ~dist:[ Dist.Block; Dist.Block_cyclic dp; Dist.Star ]
             ~grid:mesh ());
        push
          (decl ~name:(name "GT" l) ~shape:[ pp; d ]
             ~dist:[ Dist.Block; Dist.Block_cyclic d ]
             ~grid:mesh ());
        push (vec3 (name "GB" l))
    | Some c ->
        push
          (decl ~name:(grad_buf l c) ~shape:[ pp; dp; dp; d ]
             ~dist:[ Dist.Block; Dist.Block; Dist.Star; Dist.Star ]
             ~grid:mesh ())
    | None -> ());

    (* staged-in activations: reader + the await that gates compute *)
    let src = if l = 1 then "IN" else name "X" (l - 1) in
    let reader, c_await =
      if Space.local input then
        (read src (group input.src) input.src g.own, None)
      else begin
        let c = name "C" l in
        List.iter emit (transfer input src c);
        (read c g act g.own, Some (own_block c g act))
      end
    in

    (* weights the forward reads whole: allgather, own block copied *)
    let wc_await =
      match weights with
      | None -> None
      | Some wcomm ->
          let wc = name "WC" l in
          emit
            (in_stage s
               (exchange wcomm w wc ~per_sender:false
               @ [
                   loop "jj" (clo s) (chi s)
                     [ set wc [ slot; cpeer s; jv ] (elem w [ slot; jv ]) ];
                 ]));
          Some (sec wc [ at slot; at (cpeer s); all ])
    in

    (* forward: X_l = input * W_l + 1, under the staged-in awaits *)
    let w_idx jv =
      (slot :: (if sp.wgt = Space.Wrepl then [ cpeer s ] else [])) @ [ jv ]
    in
    let welem jv =
      if weights = None then elem w (w_idx jv)
      else elem (name "WC" l) [ slot; cpeer s; jv ]
    in
    let rows_lo, rows_hi = if act.rows then (rlo s, rhi s) else (i 1, i bsz) in
    let cols_lo, cols_hi = if act.cols then (clo s, chi s) else (i 1, i d) in
    let x_idx iv jv = prefix g act g.own @ [ iv; jv ] in
    let fwd =
      [
        loop "ii" rows_lo rows_hi
          [
            loop "jj" cols_lo cols_hi
              [ set x (x_idx iv jv) ((reader iv jv *: welem jv) +: f 1.0) ];
          ];
      ]
    in
    let gated aw body =
      match aw with None -> body | Some aw -> [ await aw @: body ]
    in
    emit (in_stage s (gated wc_await (gated c_await fwd)));

    (* gradient partial: column sums of the local activation block *)
    emit
      (in_stage s
         [
           loop "jj" cols_lo cols_hi
             [
               setv "g" (f 0.0);
               loop "ii" rows_lo rows_hi
                 [ setv "g" (var "g" +: elem x (x_idx iv jv)) ];
               set gp [ slot; cpeer s; jv ] (var "g");
             ];
         ]);

    (* gradient allreduce + weight update *)
    let w_add idx grad = set w idx (elem w idx +: (f eta *: grad)) in
    let mine jv = elem gp [ slot; cpeer s; jv ] in
    let own_lo, own_hi =
      if sp.wgt = Space.Wshard then (clo s, chi s) else (i 1, i d)
    in
    let upd =
      match gradient with
      | None -> [ loop "jj" own_lo own_hi [ w_add (w_idx jv) (mine jv) ] ]
      | Some { pattern = Space.Rooted; _ } ->
          (* rooted tree: reduce to the stage root, broadcast back *)
          let gr = name "GR" l and gt = name "GT" l and gb = name "GB" l in
          let root = (s * dp) + 1 in
          let is_root = mypid =: i root in
          [
            if_ is_root
              [
                loop "q" (i 2) (i dp)
                  [
                    recv
                      ~into:(sec gr [ at slot; at qv; all ])
                      ~from:(sec gp [ at slot; at qv; all ]);
                  ];
              ]
              [
                send_to (sec gp [ at slot; at (cpeer s); all ]) [ i root ];
                recv
                  ~into:(sec gb [ at slot; at (cpeer s); all ])
                  ~from:(sec gt [ at slot; all ]);
              ];
            if_ is_root
              [
                await (sec gr [ at slot; slice (i 2) (i dp); all ])
                @: [
                     loop "jj" (i 1) (i d)
                       [
                         setv "g" (elem gp [ slot; i 1; jv ]);
                         loop "q" (i 2) (i dp)
                           [ setv "g" (var "g" +: elem gr [ slot; qv; jv ]) ];
                         set gt [ slot; jv ] (var "g");
                       ];
                     loop "q" (i 2) (i dp)
                       [
                         send_to (sec gt [ at slot; all ]) [ i (s * dp) +: qv ];
                       ];
                     loop "jj" (i 1) (i d)
                       [ w_add [ slot; i 1; jv ] (elem gt [ slot; jv ]) ];
                   ];
              ]
              [
                await (sec gb [ at slot; at (cpeer s); all ])
                @: [
                     loop "jj" (i 1) (i d)
                       [ w_add (w_idx jv) (elem gb [ slot; cpeer s; jv ]) ];
                   ];
              ];
          ]
      | Some c ->
          let buf = grad_buf l c in
          let theirs = elem buf [ slot; cpeer s; qv; jv ] in
          let fold =
            match Space.pieces c with
            | _, Space.Src_block ->
                (* disjoint feature blocks: concatenate *)
                let blk part =
                  [
                    loop "jj"
                      (((qv -: i 1) *: i dpd) +: i 1)
                      (qv *: i dpd)
                      [ w_add (w_idx jv) part ];
                  ]
                in
                [
                  loop "q" (i 1) (i dp)
                    [ if_ (qv =: cpeer s) (blk (mine jv)) (blk theirs) ];
                ]
            | _ ->
                (* every peer's partial covers the piece: sum them *)
                [
                  loop "jj" own_lo own_hi
                    [
                      setv "g" (mine jv);
                      loop "q" (i 1) (i dp)
                        [
                          if_ (qv <>: cpeer s)
                            [ setv "g" (var "g" +: theirs) ]
                            [];
                        ];
                      w_add (w_idx jv) (var "g");
                    ];
                ]
          in
          exchange c gp buf ~per_sender:true
          @ [
              await
                (sec buf
                   [
                     at slot;
                     at (cpeer s);
                     all;
                     (if c.dst.cols then cols_of (cpeer s) else all);
                   ])
              @: fold;
            ]
    in
    emit (in_stage s upd)
  done;

  (* exit: the last layer's activations land in the machine-wide OUT *)
  let out = Space.boundary cfg pl nl in
  let gs = group out.src and gd = group out.dst in
  let xl = name "X" nl in
  if Space.local out then
    emit
      (loop "ii" mlo mhi
         [
           loop "jj" (i 1) (i d)
             [ set "OUT" [ iv; jv ] (read xl gs out.src gd.own iv jv) ];
         ])
  else begin
    List.iter emit (transfer out xl "OUT");
    emit (await (own_block "OUT" gd out.dst) @: [])
  end;
  program
    ~name:("dlstack-" ^ Space.key pl)
    ~decls:(List.rev !decls) (List.rev !stmts)

(* ------------------------------------------------------------------ *)
(* Analytic values: X_l = IN + l exactly, so the layer-l gradient is
   S(j) + batch*l with S(j) the column sum of IN, and every quantity
   is an exact dyadic. *)

let reference (cfg : Space.config) =
  Tensor.init [ cfg.batch; cfg.dim ] (function
    | [ i; j ] -> in_val i j +. float_of_int cfg.nlayers
    | _ -> assert false)

let grad_total (cfg : Space.config) l j =
  let s = ref 0.0 in
  for ii = 1 to cfg.batch do
    s := !s +. in_val ii j
  done;
  !s +. float_of_int (cfg.batch * l)

(* Layer [l]'s updated weights, shaped like its [W<l>] declaration;
   slots of stages the layer does not occupy keep their initial 1.0. *)
let expected_weights (cfg : Space.config) (pl : Space.placement) l =
  let sp = pl.layers.(l - 1) in
  let slot = sp.stage + 1 in
  let wexp j = 1.0 +. (eta *. grad_total cfg l j) in
  match sp.wgt with
  | Space.Wshard ->
      Tensor.init [ pl.pp; cfg.dim ] (function
        | [ s; j ] -> if s = slot then wexp j else 1.0
        | _ -> assert false)
  | Space.Wrepl ->
      Tensor.init [ pl.pp; pl.dp; cfg.dim ] (function
        | [ s; _; j ] -> if s = slot then wexp j else 1.0
        | _ -> assert false)

let check (cfg : Space.config) (pl : Space.placement) arrays =
  let check_one name want k =
    let got = arrays name in
    if Tensor.equal ~eps:0.0 got want then k ()
    else Error (name ^ " diverges from the analytic value")
  in
  let rec layers l =
    if l > cfg.nlayers then Ok ()
    else
      check_one
        ("W" ^ string_of_int l)
        (expected_weights cfg pl l)
        (fun () -> layers (l + 1))
  in
  check_one "OUT" (reference cfg) (fun () -> layers 1)
