open Vblu_sparse

type family = Structural_fem | Scalar_pde | Convection | Circuit | Block_chain

let family_name = function
  | Structural_fem -> "structural-fem"
  | Scalar_pde -> "scalar-pde"
  | Convection -> "convection"
  | Circuit -> "circuit"
  | Block_chain -> "block-chain"

type entry = {
  id : int;
  name : string;
  family : family;
  generate : unit -> Csr.t;
}

let seed_of id = Random.State.make [| 0x5017e; id |]

let fem id ~nodes ~vars ~coupling () =
  Generators.fem_blocks ~state:(seed_of id) ~nodes ~vars_per_node:vars ~coupling
    ~margin:0.01 ()

let chain id ~blocks ~block_size () =
  Generators.block_tridiagonal ~state:(seed_of id) ~blocks ~block_size
    ~margin:0.01 ~coupling:1.0 ()

let circuit id ~n ~hubs ~hub_degree () =
  Generators.circuit_like ~state:(seed_of id) ~n ~hubs ~hub_degree ()

(* The 48 stand-ins, ordered like Table I's name column (alphabetical); the
   id column matches the paper's "ID" indices used on Figure 9's x-axis. *)
let all =
  [
    (* name, family, generator *)
    ("ABACUS_shell_ud", Structural_fem, fun id -> fem id ~nodes:450 ~vars:4 ~coupling:0.55);
    ("af_shell3", Structural_fem, fun id -> fem id ~nodes:500 ~vars:5 ~coupling:0.5);
    ("bcsstk17", Structural_fem, fun id -> fem id ~nodes:350 ~vars:6 ~coupling:0.55);
    ("bcsstk18", Structural_fem, fun id -> fem id ~nodes:400 ~vars:4 ~coupling:0.6);
    ("bcsstk38", Structural_fem, fun id -> fem id ~nodes:300 ~vars:8 ~coupling:0.55);
    ("BenElechi1", Structural_fem, fun id -> fem id ~nodes:550 ~vars:4 ~coupling:0.5);
    ("bone010", Structural_fem, fun id -> fem id ~nodes:500 ~vars:3 ~coupling:0.55);
    ("cage10", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:40 ~ny:40 ~peclet:5.0 ());
    ("cant", Structural_fem, fun id -> fem id ~nodes:450 ~vars:3 ~coupling:0.6);
    ("ChebyshevP2", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:48 ~ny:48 ~peclet:80.0 ());
    ("ChebyshevP3", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:56 ~ny:56 ~peclet:150.0 ());
    ("crankseg_1", Structural_fem, fun id -> fem id ~nodes:380 ~vars:6 ~coupling:0.5);
    ("CurlCurl_0", Scalar_pde, fun _ () -> Generators.anisotropic_2d ~nx:70 ~ny:70 ~epsilon:0.002 ());
    ("CurlCurl_1", Scalar_pde, fun _ () -> Generators.anisotropic_2d ~nx:80 ~ny:80 ~epsilon:0.001 ());
    ("dc3", Circuit, fun id -> circuit id ~n:2200 ~hubs:10 ~hub_degree:350);
    ("dw1024", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:32 ~ny:32 ~peclet:15.0 ());
    ("dw2048", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:45 ~ny:45 ~peclet:15.0 ());
    ("dw4096", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:64 ~ny:64 ~peclet:15.0 ());
    ("dw8192", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:110 ~ny:110 ~peclet:15.0 ());
    ("ecology2", Scalar_pde, fun _ () -> Generators.laplacian_2d ~nx:110 ~ny:110 ());
    ("F2", Structural_fem, fun id -> fem id ~nodes:420 ~vars:5 ~coupling:0.55);
    ("Fault_639", Structural_fem, fun id -> fem id ~nodes:460 ~vars:4 ~coupling:0.6);
    ("gas_sensor", Scalar_pde, fun _ () -> Generators.laplacian_3d ~nx:13 ~ny:13 ~nz:13 ());
    ("gridgena", Scalar_pde, fun _ () -> Generators.anisotropic_2d ~nx:75 ~ny:75 ~epsilon:0.005 ());
    ("Hook_1498", Structural_fem, fun id -> fem id ~nodes:520 ~vars:4 ~coupling:0.55);
    ("ibm_matrix_2", Circuit, fun id -> circuit id ~n:1800 ~hubs:8 ~hub_degree:300);
    ("inline_1", Structural_fem, fun id -> fem id ~nodes:480 ~vars:6 ~coupling:0.5);
    ("Kuu", Structural_fem, fun id -> fem id ~nodes:350 ~vars:5 ~coupling:0.55);
    ("kim1", Scalar_pde, fun _ () -> Generators.laplacian_3d ~nx:12 ~ny:12 ~nz:12 ());
    ("matrix-new_3", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:60 ~ny:60 ~peclet:120.0 ());
    ("matrix_9", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:64 ~ny:64 ~peclet:200.0 ());
    ("ML_Laplace", Scalar_pde, fun _ () -> Generators.laplacian_2d ~nx:120 ~ny:120 ());
    ("nasa2910", Structural_fem, fun id -> fem id ~nodes:360 ~vars:8 ~coupling:0.5);
    ("nd12k", Scalar_pde, fun _ () -> Generators.laplacian_3d ~nx:18 ~ny:18 ~nz:18 ());
    ("nd24k", Scalar_pde, fun _ () -> Generators.laplacian_3d ~nx:20 ~ny:20 ~nz:20 ());
    ("nd3k", Scalar_pde, fun _ () -> Generators.laplacian_3d ~nx:11 ~ny:11 ~nz:11 ());
    ("nd6k", Scalar_pde, fun _ () -> Generators.laplacian_3d ~nx:12 ~ny:13 ~nz:13 ());
    ("ndk", Block_chain, fun id -> chain id ~blocks:90 ~block_size:20);
    ("newman415", Circuit, fun id -> circuit id ~n:1500 ~hubs:6 ~hub_degree:250);
    ("olm5000", Convection, fun _ () -> Generators.convection_diffusion_2d ~nx:72 ~ny:72 ~peclet:300.0 ());
    ("pres_poisson", Scalar_pde, fun _ () -> Generators.laplacian_2d ~nx:115 ~ny:115 ());
    ("raj1", Circuit, fun id -> circuit id ~n:2500 ~hubs:12 ~hub_degree:400);
    ("s1rmt3m1", Block_chain, fun id -> chain id ~blocks:110 ~block_size:18);
    ("s1rmq4m1", Block_chain, fun id -> chain id ~blocks:100 ~block_size:24);
    ("s2rmt3m1", Block_chain, fun id -> chain id ~blocks:120 ~block_size:16);
    ("s2rmq4m1", Block_chain, fun id -> chain id ~blocks:95 ~block_size:28);
    ("s3rmt3m1", Block_chain, fun id -> chain id ~blocks:130 ~block_size:12);
    ("sme3Db", Structural_fem, fun id -> fem id ~nodes:440 ~vars:5 ~coupling:0.6);
  ]
  |> List.mapi (fun i (name, family, gen) ->
         let id = i + 1 in
         { id; name; family; generate = (fun () -> gen id ()) })

let matrix e = e.generate ()
