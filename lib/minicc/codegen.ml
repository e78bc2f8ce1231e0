(** Code generation: mini-C AST -> VG32 assembly text.

    A classic one-pass stack-machine generator: expression results live
    in r0 (integers/pointers) or f0 (doubles); intermediate values are
    pushed on the guest stack; locals are addressed off the frame pointer
    (r6), arguments at [fp+8+..] (pushed right-to-left), giving the frame
    layout the core's stack tracer expects ([fp] = saved fp, [fp+4] =
    return address). *)

open Ast

exception Error of string

let err fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

type binding = Local of ty * int  (** fp-relative offset *) | Global of ty

type fsig = { fs_ret : ty; fs_params : ty list }

type env = {
  buf : Buffer.t;  (** text section *)
  data : Buffer.t;  (** data section *)
  mutable label_n : int;
  mutable str_n : int;
  funcs : (string, fsig) Hashtbl.t;
  globals : (string, ty) Hashtbl.t;
  mutable locals : (string * binding) list;  (** innermost first *)
  mutable frame_size : int;
  mutable breaks : string list;  (** label stacks for break/continue *)
  mutable continues : string list;
  mutable cur_ret : ty;
  mutable cur_exit : string;
}

let ins env fmt = Fmt.kstr (fun s -> Buffer.add_string env.buf ("        " ^ s ^ "\n")) fmt
let label env l = Buffer.add_string env.buf (l ^ ":\n")
let dat env fmt = Fmt.kstr (fun s -> Buffer.add_string env.data (s ^ "\n")) fmt

let fresh_label env prefix =
  let n = env.label_n in
  env.label_n <- n + 1;
  Printf.sprintf ".L%s%d" prefix n

(* value category of a type when held in a register *)
let is_double = function Tdouble -> true | _ -> false

let decay = function Tarray (t, _) -> Tptr t | t -> t

let elem_ty = function
  | Tptr t -> t
  | Tarray (t, _) -> t
  | t -> err "cannot index/deref a value of type %a" pp_ty t

(* ------------------------------------------------------------------ *)
(* Builtins                                                             *)
(* ------------------------------------------------------------------ *)

let builtin_sigs : (string * fsig) list =
  [
    ("__syscall0", { fs_ret = Tint; fs_params = [ Tint ] });
    ("__syscall1", { fs_ret = Tint; fs_params = [ Tint; Tint ] });
    ("__syscall2", { fs_ret = Tint; fs_params = [ Tint; Tint; Tint ] });
    ("__syscall3", { fs_ret = Tint; fs_params = [ Tint; Tint; Tint; Tint ] });
    ("__clreq", { fs_ret = Tint; fs_params = [ Tint; Tptr Tint ] });
    ("__sysinfo", { fs_ret = Tint; fs_params = [ Tint ] });
    ("sqrt", { fs_ret = Tdouble; fs_params = [ Tdouble ] });
    ("fabs", { fs_ret = Tdouble; fs_params = [ Tdouble ] });
  ]

(* ------------------------------------------------------------------ *)
(* Frame layout                                                         *)
(* ------------------------------------------------------------------ *)

let align n a = (n + a - 1) land lnot (a - 1)

(* Pre-assign every local declared anywhere in the function a slot. *)
let assign_locals (f : func) : (string * binding) list * int =
  let offset = ref 0 in
  let slots = ref [] in
  let add_local t name =
    if List.mem_assoc name !slots then
      err "duplicate local '%s' in function '%s' (mini-C requires unique \
           names per function)"
        name f.f_name;
    let size = align (ty_size t) 4 in
    offset := align (!offset + size) (if is_double (decay t) then 8 else 4);
    slots := (name, Local (t, - !offset)) :: !slots
  in
  let rec walk_stmt = function
    | Decl (t, name, _) -> add_local t name
    | If (_, a, b) ->
        List.iter walk_stmt a;
        List.iter walk_stmt b
    | While (_, b) -> List.iter walk_stmt b
    | For (init, _, _, b) ->
        Option.iter walk_stmt init;
        List.iter walk_stmt b
    | Block b -> List.iter walk_stmt b
    | _ -> ()
  in
  List.iter walk_stmt f.f_body;
  (* parameters *)
  let poff = ref 8 in
  List.iter
    (fun (t, name) ->
      let t = decay t in
      slots := (name, Local (t, !poff)) :: !slots;
      poff := !poff + align (ty_size t) 4)
    f.f_params;
  (List.rev !slots, align !offset 8)

let lookup env name : binding =
  match List.assoc_opt name env.locals with
  | Some b -> b
  | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some t -> Global t
      | None -> err "undefined variable '%s'" name)

(* ------------------------------------------------------------------ *)
(* Expression codegen                                                   *)
(* ------------------------------------------------------------------ *)

(* convert the value in r0/f0 from [src] to [dst] *)
let convert env (src : ty) (dst : ty) =
  match (decay src, decay dst) with
  | Tdouble, Tdouble -> ()
  | Tdouble, (Tint | Tchar) -> ins env "fdtoi r0, f0"
  | (Tint | Tchar | Tptr _), Tdouble -> ins env "fitod f0, r0"
  | _ -> ()

let push_value env (t : ty) =
  if is_double (decay t) then begin
    ins env "subi sp, 8";
    ins env "fst [sp], f0"
  end
  else ins env "push r0"

let load_of_ty env (t : ty) ~addr_reg =
  match decay t with
  | Tchar -> ins env "ldb r0, [%s]" addr_reg
  | Tdouble -> ins env "fld f0, [%s]" addr_reg
  | Tarray _ -> () (* arrays decay: the address is the value *)
  | _ -> ins env "ldw r0, [%s]" addr_reg

let store_of_ty env (t : ty) ~addr_reg =
  match decay t with
  | Tchar -> ins env "stb [%s], r0" addr_reg
  | Tdouble -> ins env "fst [%s], f0" addr_reg
  | _ -> ins env "stw [%s], r0" addr_reg

let cond_suffix ~flt = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> if flt then "b" else "lt"
  | Le -> if flt then "be" else "le"
  | Gt -> if flt then "a" else "gt"
  | Ge -> if flt then "ae" else "ge"
  | _ -> assert false

let rec gen_expr env (e : expr) : ty =
  match e with
  | Int n ->
      ins env "movi r0, %Ld" (Support.Bits.trunc32 n);
      Tint
  | Chr c ->
      ins env "movi r0, %d" (Char.code c);
      Tint
  | Float f ->
      ins env "fldi f0, %h" f;
      Tdouble
  | Str s ->
      let l = Printf.sprintf ".str%d" env.str_n in
      env.str_n <- env.str_n + 1;
      let escaped =
        String.concat ""
          (List.map
             (fun c ->
               match c with
               | '\n' -> "\\n"
               | '\t' -> "\\t"
               | '"' -> "\\\""
               | '\\' -> "\\\\"
               | '\000' -> "\\0"
               | c -> String.make 1 c)
             (List.init (String.length s) (String.get s)))
      in
      dat env "%s: .asciz \"%s\"" l escaped;
      ins env "movi r0, %s" l;
      Tptr Tchar
  | Var name -> (
      match lookup env name with
      | Local (t, off) -> (
          match t with
          | Tarray _ ->
              ins env "lea r0, [fp%+d]" off;
              decay t
          | _ ->
              ins env
                (match decay t with
                | Tchar -> "ldb r0, [fp%+d]"
                | Tdouble -> "fld f0, [fp%+d]"
                | _ -> "ldw r0, [fp%+d]")
                off;
              t)
      | Global t -> (
          match t with
          | Tarray _ ->
              ins env "movi r0, %s" name;
              decay t
          | _ ->
              ins env "movi r0, %s" name;
              load_of_ty env t ~addr_reg:"r0";
              t))
  | Sizeof t ->
      ins env "movi r0, %d" (ty_size t);
      Tint
  | Cast (t, e) ->
      let src = gen_expr env e in
      convert env src t;
      decay t
  | Addr lv ->
      let t = gen_addr env lv in
      Tptr t
  | Deref e ->
      let t = gen_expr env e in
      let et = elem_ty t in
      (match et with
      | Tarray _ -> () (* address is the value *)
      | _ -> load_of_ty env et ~addr_reg:"r0");
      decay et
  | Index (a, i) ->
      let et = gen_index_addr env a i in
      (match et with
      | Tarray _ -> ()
      | _ -> load_of_ty env et ~addr_reg:"r0");
      decay et
  | Assign (lv, rhs) ->
      let lt = gen_addr env lv in
      ins env "push r0";
      let rt = gen_expr env rhs in
      convert env rt lt;
      ins env "pop r1";
      store_of_ty env lt ~addr_reg:"r1";
      decay lt
  | OpAssign (op, lv, rhs) ->
      gen_expr env (Assign (lv, Bin (op, lv, rhs)))
  | PostIncr lv -> gen_incdec env lv 1
  | PostDecr lv -> gen_incdec env lv (-1)
  | Un (Neg, e) -> (
      match gen_expr env e with
      | Tdouble ->
          ins env "fneg f0, f0";
          Tdouble
      | t ->
          ins env "neg r0";
          t)
  | Un (Not, e) ->
      let t = gen_expr env e in
      if is_double t then begin
        ins env "fldi f1, 0";
        ins env "fcmp f0, f1";
        ins env "seteq r0"
      end
      else begin
        ins env "cmpi r0, 0";
        ins env "seteq r0"
      end;
      Tint
  | Un (Bnot, e) ->
      ignore (gen_expr env e);
      ins env "not r0";
      Tint
  | Cond (c, t, f) ->
      let lf = fresh_label env "cf" in
      let le = fresh_label env "ce" in
      gen_cond_jump env c ~jump_if_false:lf;
      let tt = gen_expr env t in
      ins env "jmp %s" le;
      label env lf;
      let ft = gen_expr env f in
      label env le;
      if is_double tt || is_double ft then Tdouble
        (* NB: arms of mixed int/double ternaries are not auto-promoted;
           avoided in practice *)
      else tt
  | Bin (And, a, b) ->
      let lf = fresh_label env "af" in
      let le = fresh_label env "ae" in
      gen_cond_jump env a ~jump_if_false:lf;
      gen_cond_jump env b ~jump_if_false:lf;
      ins env "movi r0, 1";
      ins env "jmp %s" le;
      label env lf;
      ins env "movi r0, 0";
      label env le;
      Tint
  | Bin (Or, a, b) ->
      let l2 = fresh_label env "o2" in
      let lf = fresh_label env "of" in
      let le = fresh_label env "oe" in
      gen_cond_jump env a ~jump_if_false:l2;
      ins env "movi r0, 1";
      ins env "jmp %s" le;
      label env l2;
      gen_cond_jump env b ~jump_if_false:lf;
      ins env "movi r0, 1";
      ins env "jmp %s" le;
      label env lf;
      ins env "movi r0, 0";
      label env le;
      Tint
  | Bin (op, a, b) -> gen_binop env op a b
  | Call (name, args) -> gen_call env name args

and gen_incdec env lv dir : ty =
  let t = gen_addr env lv in
  let t = decay t in
  let step =
    match t with Tptr e -> ty_size e | _ -> 1
  in
  (match t with
  | Tdouble ->
      ins env "mov r2, r0";
      ins env "fld f0, [r2]";
      ins env "fldi f1, 1";
      ins env (if dir > 0 then "fadd f1, f0" else "fmov f2, f0");
      if dir > 0 then begin
        (* f1 = old+1; store f1, keep old in f0 *)
        ins env "fst [r2], f1"
      end
      else begin
        ins env "fldi f1, 1";
        ins env "fsub f2, f1";
        ins env "fst [r2], f2"
      end
  | _ ->
      ins env "mov r2, r0";
      ins env "ldw r0, [r2]";
      (match t with Tchar -> ins env "ldb r0, [r2]" | _ -> ());
      ins env "mov r1, r0";
      ins env "%s r1, %d" (if dir > 0 then "addi" else "subi") step;
      (match t with
      | Tchar -> ins env "stb [r2], r1"
      | _ -> ins env "stw [r2], r1"));
  t

(* address of an indexed element in r0; returns the element type *)
and gen_index_addr env (a : expr) (i : expr) : ty =
  let at = gen_expr env a in
  let et = elem_ty at in
  ins env "push r0";
  let it = gen_expr env i in
  if is_double it then err "array index cannot be a double";
  let sz = ty_size (decay et) in
  if sz > 1 then begin
    if sz = 4 then ins env "shli r0, 2"
    else if sz = 8 then ins env "shli r0, 3"
    else if sz = 2 then ins env "shli r0, 1"
    else begin
      ins env "movi r1, %d" sz;
      ins env "mul r0, r1"
    end
  end;
  ins env "pop r1";
  ins env "add r0, r1";
  et

(* address of an lvalue in r0; returns the *element* type *)
and gen_addr env (lv : expr) : ty =
  match lv with
  | Var name when
      (not (List.mem_assoc name env.locals))
      && (not (Hashtbl.mem env.globals name))
      && Hashtbl.mem env.funcs name ->
      (* &function: the code address (usable with an asm-level indirect
         call; mini-C itself has no function-pointer calls) *)
      ins env "movi r0, %s" name;
      Tint
  | Var name -> (
      match lookup env name with
      | Local (t, off) ->
          ins env "lea r0, [fp%+d]" off;
          t
      | Global t ->
          ins env "movi r0, %s" name;
          t)
  | Deref e ->
      let t = gen_expr env e in
      elem_ty t
  | Index (a, i) -> gen_index_addr env a i
  | e -> err "expression is not an lvalue: %s" (match e with Call _ -> "call" | _ -> "expr")

and gen_binop env op a b : ty =
  let ta0 = gen_expr env a in
  let ta = decay ta0 in
  (* decide promotion by scanning b's type cheaply: we must generate b
     anyway, so generate, then reconcile *)
  push_value env ta;
  let tb0 = gen_expr env b in
  let tb = decay tb0 in
  let flt = is_double ta || is_double tb in
  if flt then begin
    (* normalise: rhs to f1, lhs to f0 *)
    if is_double ta then begin
      (* lhs was pushed as double *)
      if is_double tb then ins env "fmov f1, f0"
      else begin
        ins env "fitod f1, r0"
      end;
      ins env "fld f0, [sp]";
      ins env "addi sp, 8"
    end
    else begin
      (* lhs pushed as int word *)
      ins env "fmov f1, f0";
      ins env "pop r1";
      ins env "fitod f0, r1"
    end;
    match op with
    | Add ->
        ins env "fadd f0, f1";
        Tdouble
    | Sub ->
        ins env "fsub f0, f1";
        Tdouble
    | Mul ->
        ins env "fmul f0, f1";
        Tdouble
    | Div ->
        ins env "fdiv f0, f1";
        Tdouble
    | Eq | Ne | Lt | Le | Gt | Ge ->
        ins env "fcmp f0, f1";
        ins env "set%s r0" (cond_suffix ~flt:true op);
        Tint
    | _ -> err "invalid double operation"
  end
  else begin
    (* integers/pointers: lhs in r1 (popped), rhs in r0 *)
    ins env "pop r1";
    let scale_for_ptr ptr_ty other_reg =
      match ptr_ty with
      | Tptr e when ty_size (decay e) > 1 ->
          let sz = ty_size (decay e) in
          if sz = 4 then ins env "shli %s, 2" other_reg
          else if sz = 8 then ins env "shli %s, 3" other_reg
          else begin
            ins env "movi r2, %d" sz;
            ins env "mul %s, r2" other_reg
          end
      | _ -> ()
    in
    match op with
    | Add ->
        (* pointer arithmetic scaling *)
        (match (ta, tb) with
        | Tptr _, _ -> scale_for_ptr ta "r0"
        | _, Tptr _ -> scale_for_ptr tb "r1"
        | _ -> ());
        ins env "add r1, r0";
        ins env "mov r0, r1";
        if is_ptr ta then ta else if is_ptr tb then tb else Tint
    | Sub ->
        (match (ta, tb) with
        | Tptr _, Tptr _ ->
            ins env "sub r1, r0";
            ins env "mov r0, r1";
            let sz = ty_size (decay (elem_ty ta)) in
            if sz > 1 then begin
              ins env "movi r1, %d" sz;
              ins env "divs r0, r1"
            end
        | Tptr _, _ ->
            scale_for_ptr ta "r0";
            ins env "sub r1, r0";
            ins env "mov r0, r1"
        | _ ->
            ins env "sub r1, r0";
            ins env "mov r0, r1");
        if is_ptr ta && not (is_ptr tb) then ta else Tint
    | Mul ->
        ins env "mul r1, r0";
        ins env "mov r0, r1";
        Tint
    | Div ->
        ins env "divs r1, r0";
        ins env "mov r0, r1";
        Tint
    | Mod ->
        (* r1 % r0 = r1 - (r1/r0)*r0 *)
        ins env "mov r2, r1";
        ins env "divs r2, r0";
        ins env "mul r2, r0";
        ins env "sub r1, r2";
        ins env "mov r0, r1";
        Tint
    | Band ->
        ins env "and r1, r0";
        ins env "mov r0, r1";
        Tint
    | Bor ->
        ins env "or r1, r0";
        ins env "mov r0, r1";
        Tint
    | Bxor ->
        ins env "xor r1, r0";
        ins env "mov r0, r1";
        Tint
    | Shl ->
        ins env "shl r1, r0";
        ins env "mov r0, r1";
        Tint
    | Shr ->
        ins env "sar r1, r0";
        ins env "mov r0, r1";
        Tint
    | Eq | Ne | Lt | Le | Gt | Ge ->
        ins env "cmp r1, r0";
        ins env "set%s r0" (cond_suffix ~flt:false op);
        Tint
    | And | Or -> assert false
  end

and is_ptr = function Tptr _ -> true | _ -> false

(* generate a conditional jump to [jump_if_false] when [c] is false *)
and gen_cond_jump env (c : expr) ~(jump_if_false : string) =
  match c with
  | Bin (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
      let ta = gen_expr env a in
      push_value env (decay ta);
      let tb = gen_expr env b in
      let flt = is_double (decay ta) || is_double (decay tb) in
      if flt then begin
        if is_double (decay ta) then begin
          if is_double (decay tb) then ins env "fmov f1, f0"
          else ins env "fitod f1, r0";
          ins env "fld f0, [sp]";
          ins env "addi sp, 8"
        end
        else begin
          ins env "fmov f1, f0";
          ins env "pop r1";
          ins env "fitod f0, r1"
        end;
        ins env "fcmp f0, f1"
      end
      else begin
        ins env "pop r1";
        ins env "cmp r1, r0"
      end;
      let inverse = function
        | Eq -> Ne | Ne -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt
        | _ -> assert false
      in
      ins env "j%s %s" (cond_suffix ~flt (inverse op)) jump_if_false
  | Bin (And, a, b) ->
      gen_cond_jump env a ~jump_if_false;
      gen_cond_jump env b ~jump_if_false
  | Bin (Or, a, b) ->
      let lt = fresh_label env "or" in
      let la = fresh_label env "oa" in
      gen_cond_jump env a ~jump_if_false:la;
      ins env "jmp %s" lt;
      label env la;
      gen_cond_jump env b ~jump_if_false;
      label env lt
  | Un (Not, e) ->
      (* !e false <=> e true: jump to false-label when e is true *)
      let lt = fresh_label env "nt" in
      gen_cond_jump env e ~jump_if_false:lt;
      ins env "jmp %s" jump_if_false;
      label env lt
  | e ->
      let t = gen_expr env e in
      if is_double (decay t) then begin
        ins env "fldi f1, 0";
        ins env "fcmp f0, f1";
        ins env "jeq %s" jump_if_false
      end
      else begin
        ins env "cmpi r0, 0";
        ins env "jeq %s" jump_if_false
      end

and gen_call env name args : ty =
  let fsig =
    match Hashtbl.find_opt env.funcs name with
    | Some s -> Some s
    | None -> List.assoc_opt name builtin_sigs
  in
  match name with
  | "sqrt" | "fabs" ->
      (match args with
      | [ a ] ->
          let t = gen_expr env a in
          convert env t Tdouble;
          ins env (if name = "sqrt" then "fsqrt f0, f0" else "fabs f0, f0")
      | _ -> err "%s expects one argument" name);
      Tdouble
  | "__sysinfo" ->
      (match args with
      | [ a ] ->
          ignore (gen_expr env a);
          ins env "sysinfo"
      | _ -> err "__sysinfo expects one argument");
      Tint
  | "__syscall0" | "__syscall1" | "__syscall2" | "__syscall3" ->
      let n = Char.code name.[9] - Char.code '0' in
      if List.length args <> n + 1 then
        err "%s expects %d arguments" name (n + 1);
      (* evaluate args left-to-right, pushing *)
      List.iter
        (fun a ->
          let t = gen_expr env a in
          if is_double (decay t) then err "syscall arguments must be integers";
          ins env "push r0")
        args;
      (* pop into r_n..r0 *)
      for i = n downto 0 do
        ins env "pop r%d" i
      done;
      ins env "syscall";
      Tint
  | "__clreq" ->
      (match args with
      | [ code; argp ] ->
          ignore (gen_expr env code);
          ins env "push r0";
          ignore (gen_expr env argp);
          ins env "mov r1, r0";
          ins env "pop r0";
          ins env "clreq"
      | _ -> err "__clreq expects (code, argp)");
      Tint
  | _ -> (
      match fsig with
      | None -> err "call to undefined function '%s'" name
      | Some { fs_ret; fs_params } ->
          if List.length args <> List.length fs_params then
            err "function '%s' expects %d arguments, got %d" name
              (List.length fs_params) (List.length args);
          (* push right-to-left so arg1 ends nearest the frame *)
          let total = ref 0 in
          List.iter2
            (fun a pt ->
              let pt = decay pt in
              let t = gen_expr env a in
              convert env t pt;
              push_value env pt;
              total := !total + align (ty_size pt) 4)
            (List.rev args) (List.rev fs_params);
          ins env "call %s" name;
          if !total > 0 then ins env "addi sp, %d" !total;
          decay fs_ret)

(* ------------------------------------------------------------------ *)
(* Statement codegen                                                    *)
(* ------------------------------------------------------------------ *)

let rec gen_stmt env (s : stmt) =
  match s with
  | Expr e -> ignore (gen_expr env e)
  | Decl (t, name, init) -> (
      (* slot was pre-assigned *)
      match init with
      | None -> ()
      | Some e ->
          let rt = gen_expr env e in
          convert env rt t;
          (match List.assoc_opt name env.locals with
          | Some (Local (_, off)) ->
              ins env
                (match decay t with
                | Tchar -> "stb [fp%+d], r0"
                | Tdouble -> "fst [fp%+d], f0"
                | _ -> "stw [fp%+d], r0")
                off
          | _ -> err "missing slot for local '%s'" name))
  | If (c, then_, else_) ->
      let lf = fresh_label env "if" in
      let le = fresh_label env "ie" in
      gen_cond_jump env c ~jump_if_false:lf;
      List.iter (gen_stmt env) then_;
      if else_ <> [] then ins env "jmp %s" le;
      label env lf;
      List.iter (gen_stmt env) else_;
      if else_ <> [] then label env le
  | While (c, body) ->
      let lh = fresh_label env "wh" in
      let le = fresh_label env "we" in
      label env lh;
      gen_cond_jump env c ~jump_if_false:le;
      env.breaks <- le :: env.breaks;
      env.continues <- lh :: env.continues;
      List.iter (gen_stmt env) body;
      env.breaks <- List.tl env.breaks;
      env.continues <- List.tl env.continues;
      ins env "jmp %s" lh;
      label env le
  | For (init, cond, step, body) ->
      Option.iter (gen_stmt env) init;
      let lh = fresh_label env "fh" in
      let lc = fresh_label env "fc" in
      let le = fresh_label env "fe" in
      label env lh;
      (match cond with
      | Some c -> gen_cond_jump env c ~jump_if_false:le
      | None -> ());
      env.breaks <- le :: env.breaks;
      env.continues <- lc :: env.continues;
      List.iter (gen_stmt env) body;
      env.breaks <- List.tl env.breaks;
      env.continues <- List.tl env.continues;
      label env lc;
      (match step with Some e -> ignore (gen_expr env e) | None -> ());
      ins env "jmp %s" lh;
      label env le
  | Return e ->
      (match e with
      | Some e ->
          let t = gen_expr env e in
          convert env t env.cur_ret
      | None -> ());
      ins env "jmp %s" env.cur_exit
  | Break -> (
      match env.breaks with
      | l :: _ -> ins env "jmp %s" l
      | [] -> err "break outside a loop")
  | Continue -> (
      match env.continues with
      | l :: _ -> ins env "jmp %s" l
      | [] -> err "continue outside a loop")
  | Block b -> List.iter (gen_stmt env) b

(* ------------------------------------------------------------------ *)
(* Top level                                                            *)
(* ------------------------------------------------------------------ *)

let gen_global env (g : global) =
  let rec emit_init (t : ty) (i : ginit option) =
    match (t, i) with
    | Tdouble, Some (Gfloat f) -> dat env "        .f64 %h" f
    | Tdouble, Some (Gint n) -> dat env "        .f64 %h" (Int64.to_float n)
    | Tdouble, None -> dat env "        .f64 0.0"
    | (Tint | Tptr _), Some (Gint n) -> dat env "        .word %Ld" (Support.Bits.trunc32 n)
    | Tptr Tchar, Some (Gstr s) ->
        let l = Printf.sprintf ".str%d" env.str_n in
        env.str_n <- env.str_n + 1;
        dat env "%s: .asciz \"%s\"" l (String.concat "" (List.map (function '\n' -> "\\n" | '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c) (List.init (String.length s) (String.get s))));
        dat env "        .word %s" l
    | (Tint | Tptr _), None -> dat env "        .word 0"
    | Tchar, Some (Gint n) -> dat env "        .byte %Ld" (Int64.logand n 0xFFL)
    | Tchar, None -> dat env "        .byte 0"
    | Tarray (Tchar, n), Some (Gstr s) ->
        let s = if String.length s >= n then String.sub s 0 n else s in
        dat env "        .ascii \"%s\"" (String.concat "" (List.map (function '\n' -> "\\n" | '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c) (List.init (String.length s) (String.get s))));
        if String.length s < n then dat env "        .space %d" (n - String.length s)
    | Tarray (et, n), Some (Garray items) ->
        List.iter (fun it -> emit_init et (Some it)) items;
        let missing = n - List.length items in
        if missing > 0 then dat env "        .space %d" (missing * ty_size et)
    | Tarray (et, n), None -> dat env "        .space %d" (n * ty_size et)
    | t, _ -> err "unsupported global initialiser for type %a" pp_ty t
  in
  dat env "        .align %d" (match decay g.g_ty with Tdouble -> 8 | _ -> 4);
  (match g.g_ty with
  | Tarray (Tchar, _) | Tarray _ | Tint | Tptr _ | Tdouble | Tchar ->
      dat env "%s:" g.g_name
  | t -> err "unsupported global type %a" pp_ty t);
  emit_init g.g_ty g.g_init

let gen_func env (f : func) =
  let locals, frame = assign_locals f in
  env.locals <- locals;
  env.frame_size <- frame;
  env.cur_ret <- f.f_ret;
  env.cur_exit <- fresh_label env "ret";
  label env f.f_name;
  ins env "push fp";
  ins env "mov fp, sp";
  if frame > 0 then ins env "subi sp, %d" frame;
  List.iter (gen_stmt env) f.f_body;
  (* implicit return 0 *)
  ins env "movi r0, 0";
  label env env.cur_exit;
  ins env "mov sp, fp";
  ins env "pop fp";
  ins env "ret"

(** Compile a mini-C program (source text) to VG32 assembly text.  The
    result still needs the runtime start-up code — use {!Driver.compile}
    for a complete image. *)
let compile_to_asm (src : string) : string =
  let prog = Parser.parse_program src in
  let env =
    {
      buf = Buffer.create 4096;
      data = Buffer.create 1024;
      label_n = 0;
      str_n = 0;
      funcs = Hashtbl.create 32;
      globals = Hashtbl.create 32;
      locals = [];
      frame_size = 0;
      breaks = [];
      continues = [];
      cur_ret = Tint;
      cur_exit = "";
    }
  in
  (* collect signatures and globals first (so forward calls work) *)
  List.iter
    (function
      | Dfunc f | Dproto f ->
          Hashtbl.replace env.funcs f.f_name
            { fs_ret = f.f_ret; fs_params = List.map fst f.f_params }
      | Dglobal g -> Hashtbl.replace env.globals g.g_name g.g_ty)
    prog;
  Buffer.add_string env.buf "        .text\n";
  Buffer.add_string env.data "        .data\n";
  List.iter
    (function
      | Dfunc f -> gen_func env f
      | Dproto _ -> ()
      | Dglobal g -> gen_global env g)
    prog;
  Buffer.contents env.buf ^ Buffer.contents env.data
