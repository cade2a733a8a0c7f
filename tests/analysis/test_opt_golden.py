"""Golden: what the optimizer makes of each program is pinned.

Every program of two corpora goes through :func:`optimize_program` with
validation on, and one SHA-256 per program covers everything the
optimizer decides:

* the optimized listing (``str`` of each instruction) and its labels;
* ``OptResult.summary()`` and ``pass_stats``;
* the validator's rejections;
* the sorted ``stack_safe`` set handed to the JIT.

The corpora are the ``test_opt_fuzz`` programs and the compile-burst
workload of the E21 benchmark (``perfbench/workloads.py``, loaded
read-only) for seeds 0-4. A change that only makes the optimizer or its
validator cheaper must leave every digest as it is. Do not regenerate
casually: these pin behaviour across speed-ups, not current behaviour.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.opt import optimize_program
from repro.system.runner import program_from_source
from tests.analysis.test_opt_fuzz import SEEDS, gen_source

REPO = Path(__file__).resolve().parents[2]
BURST_SEEDS = range(5)


def _workloads():
    """``perfbench/workloads.py`` as a module, without importing the
    benchmark package (its directory is not on the path)."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def burst_sources(seed: int) -> list[str]:
    """The C sources of one compile-burst pass."""
    return [req["source"] for req in _workloads().generate("compile-burst",
                                                           seed)]


def corpus() -> list[tuple[str, str]]:
    """(golden key, C source) for every program the goldens cover."""
    out = [(f"fuzz-{seed}", gen_source(seed)) for seed in SEEDS]
    for seed in BURST_SEEDS:
        out += [(f"burst-{seed}-{k}", src)
                for k, src in enumerate(burst_sources(seed))]
    return out


CORPUS = dict(corpus())


def opt_digest(result) -> str:
    """SHA-256 over the listing, summary, pass stats, rejections and
    proved-safe set of one :class:`OptResult`."""
    program = result.program
    doc = {
        "listing": [str(ins) for ins in program.instructions],
        "labels": sorted(program.labels.items()),
        "summary": result.summary(),
        "pass_stats": sorted(result.pass_stats.items()),
        "rejections": [str(r) for r in result.rejections],
        "stack_safe": sorted(program.stack_safe or ()),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


#: golden key -> :func:`opt_digest`, captured before the optimizer's
#: analyses were made to run once per program
OPT_GOLDENS = {
    "fuzz-0": "4fb0fbef9c025ec12164dd8c22a59d1cfcbadc958a568d8aaba83fdb5dacf501",
    "fuzz-1": "de9c2f2921041046540f34ca85a0823093001a3bdadac474dcba9fc43d3d7bf7",
    "fuzz-2": "acf6fa1be4a22967b2f9afefca2f0288f38d8593d9fc90d9b73209945e9d63c0",
    "fuzz-3": "51ff5056dcf98343befaa2b650a2228b668a4ac8ef9c7b8c857401859876a54d",
    "fuzz-4": "ce38e0fa8032547893382a2cfa1636d22b39540a274285238cc57e46f459a00c",
    "fuzz-5": "66935fb624eed3a6f227d63f38bc7cc5b14f68f11b15c4eba499cb9159e5c08d",
    "fuzz-6": "159b1a8538a37b565edddc0860f461ea845f089298eb53d588486ee3d0afef5f",
    "fuzz-7": "568a8619c0bc5f29cd0847f424428d2c3361829d2025bbc7740c391b3d9466fc",
    "fuzz-8": "bdfad23a7864694dcecdc39a20fa2dd085f807f152b645daf0a5bd980f8a0c43",
    "fuzz-9": "6ea7cbc2cb879f70cbc126aa3d850a085c798c477b5bc99aa7718d4a36662b3d",
    "burst-0-0": "364771cd437f1fb52065f01421740b420a10cbc3dbe9cabfee00f98f337151b5",
    "burst-0-1": "70dd643471d0b14c95e3c1732427afd2657be3ccafb758f856b6c409712b0c58",
    "burst-0-2": "1dadbd47f3e6ab7886061c3737d43955967da9eaad964139d481e99cbc979163",
    "burst-0-3": "68a5ced4ac41eece39a4f3962fbf313e6918d6644e62d4b62afc22d3c34ccfb6",
    "burst-0-4": "28cac42e4c2786067b008a4dea36e45c13f092acdb7b497f1c53e32a3d3c5679",
    "burst-0-5": "5f2e5375c2ddf4f5d12becde5d34fe85b5818ee364cff0164750ff4ea2830dc2",
    "burst-0-6": "9d0df88e74e6b38aa17febecffbb213adfb480cc5b69356f190c73e3e4ad104a",
    "burst-0-7": "6df61f5ac2f5e68e8c7eb6d54563b65c86c3a91293975f163bcf7404a08c0d47",
    "burst-0-8": "45f756e28130f24ca1d4be58e20ca633e0f22b9c3e8f28bf174cc6bcc109783f",
    "burst-0-9": "c0e0bd6b087d10de54369fb62e8631db09075fdba0ff56a429df2ad538c83d11",
    "burst-0-10": "8249b152881a0c693bf7fe7c50112bcc8973be9363662c36e337b91ed7b217ad",
    "burst-0-11": "2874528a905436249aebeff87b82b7e8bebb9d7e5382579254d4cb5a78d31cf5",
    "burst-0-12": "5f93ef31feea688ebaed741219bcffe638ab2dd40381e5d3bbf2cb7b507c5166",
    "burst-0-13": "a6a4661d664f492c0d9ccbc7bffec7a3b3578dee897eb86f0bccc957666ae829",
    "burst-0-14": "860ee0fc94bf774afe79ef62b5811ea28d3d36ae90759d509a55bbe891b20e79",
    "burst-0-15": "7c397f09b3123fa061c5496b0016e196fcc66d076af6c47709ef46d00aab6338",
    "burst-0-16": "89a1716ae2f4d7f01f57a32393177214503ac14b6875f194f6f451802439f55c",
    "burst-0-17": "d25a6cebf96a08c284e432ce897b75898a8f468d8bc4ab4884c912b7916fbf90",
    "burst-0-18": "f921903275f26db95596dd629933f4d53998906d96f6eee780389d56577eb41f",
    "burst-0-19": "bf8eee98a13effb8c85ea89a86dbef0c43df5f5bb2aa97d1c7ee312510862e11",
    "burst-0-20": "b2f1d50978eff70465c1bf219375933c9feb7fffd5d61aed485eb7a5c28bb30b",
    "burst-0-21": "56218c322aa6f383349991be10bcd9941d2b06efb6da9a9b7f968226e12674bb",
    "burst-0-22": "db3f72dbc5c4d1e5667a3dc634c771636324b5fafe2261ecbecec64a4842c784",
    "burst-0-23": "4fe8f44749462b3f441f7e3e5cef07c0ab54674d4e9761e1bcbf8e4765494735",
    "burst-0-24": "460bc0689ecec802d5a90b8786d13348e7e92531e3f8275d5840008cb9cebb6c",
    "burst-0-25": "2421cbdc6c161762ba6bfada23b5b9b1f2e1999eb7763169176c1cfe3b33c2c8",
    "burst-0-26": "9d798745420a692aac07b9af3d2b5a340ff2b91c31b624011b216a605419293b",
    "burst-0-27": "1d51145f7d35fba6cf43bd4d88735456920f1d849cd95a3972d979603dbfafdd",
    "burst-0-28": "b70a88f8765e9069f9a37576a7e52b4c89a248e89e67069cb1992f9b7a6932d5",
    "burst-0-29": "9db356f7463deca5283263e78710b87be075349e3bcf17fb7a1ec3cd9fa74210",
    "burst-0-30": "fa7c8489ec916756a9f9e2c8a0db74a552e5e9ee4a8add737e4e525d2d566243",
    "burst-0-31": "1d0dd0b6d2a7be1c7214dffa90ccbc057235209fa1ffe77d3c8f6b48e9a456cf",
    "burst-1-0": "0825cd2c95618cf1ebadcf2e6b1b499e57158f7b4c935a046d4cd0465ffa28bc",
    "burst-1-1": "d5d1201a83a3f254a7babc011996a8aa84995e3aa4622f698427cbbd2a56efef",
    "burst-1-2": "69f1b8cda7d8d5506222e0b74488ff195506902c500584f59b362d4f6a42cc93",
    "burst-1-3": "57de87518d100611f117eb7337c154e18139457bb0d459955767eeb94c533378",
    "burst-1-4": "3fa571e944e3c1eac6d40dae330ff6f9b4b9eb7bf5b1746d5a6dc406aedd6022",
    "burst-1-5": "6c5b52fad9a22ffee2fea7afe0b0f9bc26685c737ce6529a6004c0c94b3abe37",
    "burst-1-6": "2831422094c086beadd1fd1b8c3218803fa31744f7a2a3140f7359e8aea501e4",
    "burst-1-7": "0e966938eb6c2dcae9aed561ae1922a3b8355150bb5a570ea26780f099fb8060",
    "burst-1-8": "eb4c95d506221516b8c28cb4bbc307568a4925d516bdcb74e81dada9ad9cbb4b",
    "burst-1-9": "1aabdf593f8eeb7dbab94ef994083cccadc2bbd7f3057b90c2db5a9ea1d47612",
    "burst-1-10": "6493ed2b78179f1f117e197c3d25733186a06b1b8c527d95f4f0f0c10dc1e315",
    "burst-1-11": "8d7c2157ff36414d5239f69ebae74178451049935ee6a01a7ec55ca2a4490147",
    "burst-1-12": "5c08df211d78694abf06abef4502ce177eed09d7ef1b5edc83af676c6aae31d9",
    "burst-1-13": "f19aa370c7c76836560768c04a298160670413407b20cb005f9bfea1cb0e8e7b",
    "burst-1-14": "03eb572928b87dd335f8da3ca567e58e8d8c5f0fa3f70ae5a71c572523b4ea79",
    "burst-1-15": "9563bfb59ff6ffe85bfc6ec67c482056c37aad13dc9a6a72a6d423fd938c5ac6",
    "burst-1-16": "286d56b9f4d608eeaa8025049a09136f24cf2e593af74f524de1d96665e2bb25",
    "burst-1-17": "54d55ff82757d4ba8443a7a9f788add8dd16555289e1c5ef0fb191208b02bdfa",
    "burst-1-18": "cfa2c2beec80dbb6a90532cfb024ba9853f386260fda091d2a3c7b6b01160150",
    "burst-1-19": "f3ec80bc9b9203f3c896860e4930ff6947eebd5b4f7652ca0aab371bfdf7d064",
    "burst-1-20": "f43f4c6b22333548e82f487ab1949d729588f83f992a541b7bc682c60be3bbcb",
    "burst-1-21": "b5e562f6d3b1013a45e0f6e68b64f4f77a97a7f098dd5fc6f570595a5c9e703c",
    "burst-1-22": "9c7e9202cc7297418d7dcc5a7bb7fe2a65c0b9beccaf5f3e746a15541b714597",
    "burst-1-23": "bd1f596164e006b37565752672b307929fd12f13599ce1758237ec527e738d2f",
    "burst-1-24": "f6aed1abd7ed814cf5f78a489b33cedad93a0822a606a91981f94e7d5e22bee0",
    "burst-1-25": "2e26c7bf6ce83701cae7a5c4e98e544399543efa10b6aad388b7ccdfe213be3c",
    "burst-1-26": "38156c7f9b9c5f138c306e3c0b068656d9057bb0a06c573aecfa4be716bf8bca",
    "burst-1-27": "cadd011d17f1a19b3113b9decb3d73f0b1b26788f83929198399100eafaab041",
    "burst-1-28": "6f340c994b8936cdf4532dc7a12f4625b7351d942849c50926d12f7e126bcb69",
    "burst-1-29": "b429ca0b3c62ff7e5c6d552576bc6d08db00795bb81ed92cff9c5d2245350445",
    "burst-1-30": "71cd59776243a30cc6edd1169f45b534a01484e1027a2758d37991ef273d1d3a",
    "burst-1-31": "aa43f18f092cac7c73d438be8e21f164d79d0d91fe36ee230ed5d819b7e4a3c6",
    "burst-2-0": "19c6c504aed9d4ed2dc99449df66008713843f2f4c2108e83e55976753721b43",
    "burst-2-1": "456e744a0dec9540d5e8c2c9a787d9f9a5964bbb61ae740dcf716cc9b41f214d",
    "burst-2-2": "abd37112a7aeab5df3234d87c3591a44c17a13256d56d6153d2a818b6afd2450",
    "burst-2-3": "04185d79423c770b8243d60823896a852bbe409e4c035b27221ecfb9a96a178c",
    "burst-2-4": "c6089c69ff6bc1070b71318d6cfef7853b1b4561d9114bcc7286aed14c5b6da9",
    "burst-2-5": "db4dbed1aa6e2a57ff6ea87c195c49ea64e8979a36d7b280289f6ab83dcc3dea",
    "burst-2-6": "d336780a6dc63a6331268e98d9f9f96407ff72268934917f6ae1dce2c476aa3f",
    "burst-2-7": "6d77394d9ad7a77581f96e7285956c2ef9d7e3a6aead8a740701dc75ba62843e",
    "burst-2-8": "921a8261b614643a83af92a8b7c7d9919e1ce58afe282a945c99b01f2b97a458",
    "burst-2-9": "0645aa77dbe07c0c13238643426a90cb604d559e319e7e85710dedc3602fecc7",
    "burst-2-10": "3cadcfdf33cfa000b27f12ffc75b8ee04e4dc78e21595d0e5535a292d928988a",
    "burst-2-11": "37750d55175554046b3eb8f3d4ee8c8d6bee55d5d94475a00762d0892fa89105",
    "burst-2-12": "0938b159f091c9ea4380f352e55aeca98427efeba3213c3c8dd4a5a92ea7b273",
    "burst-2-13": "aa9abfb235a251624c9e9a49225673d0becf60dcf7e29308506e6a671243bca0",
    "burst-2-14": "4b33f41b3d6c0bcfbda06dd0b96fa664984f612b727d1757e215012713cf8b58",
    "burst-2-15": "76cfc346283f133098f41580623472daaeead5b8ad1133a30610697623c65ab9",
    "burst-2-16": "0ea36749b309f07cec634a2805c2eb77b0138c0f27dfe832d340102d3f308b24",
    "burst-2-17": "3d698ec2f8fa588e4dc1e98289a4825e3133e724df2b3f638850d161a440c5ac",
    "burst-2-18": "0655cd012838fc68a8676c886b5b10f01a57be50b6a383390ab9cbc1f26c1d09",
    "burst-2-19": "13627b58f5b14f0f205a2634ee872fc6b8b1ae3a802b60aa2acfd22248ffc1ff",
    "burst-2-20": "253c901b627ef6cb9284fe4cb33ddd697802fc8d26a7082ad25bed77a95fd621",
    "burst-2-21": "c6c2ca68c6f5db3c7f0cde7cfdca7b6e80164bf26b85ef5d8992516e078ae369",
    "burst-2-22": "759a69fb6861c4b3bfbfa340972f5e3edbc2922300ee8f5b0200cc6a4b137136",
    "burst-2-23": "bd48cf6926e2e120826d4addede2fb1ce0b92e7342295fb4bc72b6e0e5b265f3",
    "burst-2-24": "b28f503f3a0e792c20f4e814e136d1ecd9a46fa31796d1d5cb2994da3bf1add3",
    "burst-2-25": "dcb663a85812fde596fece8fc4ac5624c0fd32cc90b8c86f0889d20c6b6efb36",
    "burst-2-26": "780c8c8279be0be8ada53b9c4e491e4c69b6444f1f1d0b39d0d2549b30521d41",
    "burst-2-27": "d4784771058328a05d4618cc26b62a01fa387d7625e008167da80cf0f206ace6",
    "burst-2-28": "073fa78f7a6c7f6699a00fcc6540d1ab2b19607de0cdb7babbcb1a0864a87af5",
    "burst-2-29": "f4ab612ff00e218cf60fe22899dc972d43d31556ede6e55260f3fe1911fbcef0",
    "burst-2-30": "21f862bf34ec14ee8309a503152643315ac47820509ca5c9878a72074c9899cc",
    "burst-2-31": "6befeeda85cae17310bd3f526bbecbf8de74b61d5df9bfdb4825bde4d9612179",
    "burst-3-0": "8aa047c1d1501242d0e531842e6dce06622f3534574c6a22734be2e1c90a6a1a",
    "burst-3-1": "1aa07c288aac2a1cfce420879333a180dcda8f55b7a023099042b340d262a037",
    "burst-3-2": "774363c29f4b6b9cf6cf0ea9abdc303f013f97088fe72a5f29683485548f3d00",
    "burst-3-3": "9494a0025c14849f1e58c21c96ec3a3972d45495f1cee35fee5746a16fbfe626",
    "burst-3-4": "5c9f047314c514358ad5d15a51c3330ee0e9681d80414fb7178ee163baef4521",
    "burst-3-5": "65a7ec7445118ec324f17b84a3a2f0c00fafebea44f382850e8a848d42a13fd1",
    "burst-3-6": "11a717dd50c44ff53ff4bcb078f674c574a5cc16e1041e2c09a81037c4786f29",
    "burst-3-7": "eba5592b19263651d3f20970240a964915bda541e26c843ec0cd1a5c5cdc9739",
    "burst-3-8": "7360ecce7c713cfd0617f85358f0301396eb42a93ba07340be6862c5c7178133",
    "burst-3-9": "d98e16b743a156899c6ab9158c54cc5da1aae7598cbf19730c741c980db63126",
    "burst-3-10": "8eeeb9738f07500f322c7986fa9205785f5e7a6f6fea581522fd7e1d23dff237",
    "burst-3-11": "8a149004868210a6c5ba798c2f226839d97b9da232917119abe3ee24438eba0e",
    "burst-3-12": "d54d8ef64dc4297c3dec6cf0b21375b4f1040fb6c79254d4c9a9885e3879163e",
    "burst-3-13": "0b62a3b4abc0855f01321cdafd1411569c9b6dad5fe12a16ed9260eec1dc002f",
    "burst-3-14": "09c448d24b8617923681ce10d8cc4f2be4c5727b455309a9852a8627774a1b10",
    "burst-3-15": "0af8a1633df8e3305872f0a6a54b33f33b3e64fe9675bef8f1fd0190fdd88d70",
    "burst-3-16": "ff4687de53d0ca2ca04e92aa5746c7a8044617d4c50fa6dd5a72c548b8e9e07f",
    "burst-3-17": "3a02dee92bfcc681ca661ab3251739506142d119c796162b3de5faa40a6ea0d8",
    "burst-3-18": "84bad78bec212b1e3ec86c4e1c1504895ff34641349c82f057381a74b1641b10",
    "burst-3-19": "a2d53f08e673abb4aaec5226e7e7f42ae351ab1c934e784855af918d94e1d691",
    "burst-3-20": "921936a5064f572d531803c38eeff1edf71839562d848ef224b6133fb085d2d5",
    "burst-3-21": "eafa63fe043854eee8656054122b7872b169dbb04dc6ce15cfab6560c65cf272",
    "burst-3-22": "aba8eaa16c16aa01990dd58212d03fa979ae7e88332286f2814c26221d281336",
    "burst-3-23": "3e6d1eeb63bf8d1e1b881c14dbb5b19454863cc1e248fc21873cb22e957cc5f0",
    "burst-3-24": "14690388018b0bdfb98aa0dad006284ce3518cd38295a4246ca9956d829ab109",
    "burst-3-25": "6d7255033120d2b5b974c472a0f032944bd4c9916fadbe9f30bb8f0919ca60cc",
    "burst-3-26": "b6e6b296f0167cecf22aabbc783798ce70975bf53959e8122f700b645b97e312",
    "burst-3-27": "c961740caaea9ab040514d8657ef1a129516b117fe10456f3abc736d04d602b8",
    "burst-3-28": "2faeb13027cf908ba176179e042e5dd8401bf0ec3771b485ab094416ae9127c6",
    "burst-3-29": "e7dca88db1eef3ffe09b5df36433d41cd7c5e3bd0b00585264bacca81e79b337",
    "burst-3-30": "fbd90ee5b3b8b99080751712fbbe8b47ca6a910be037473fc5e85de784049bd7",
    "burst-3-31": "7c0fec37f972c0819beb00e907e2c1b4e1d473c156ca620a788dab7597c5b29a",
    "burst-4-0": "2faaaf6d89577dc4236f671aeb2b04d35bfeb12e77de98c8437ca4e74ffd317f",
    "burst-4-1": "3cd7fbeba38d63bd573e4b497b618ada9878029da1ce84ae57178b61404eda5c",
    "burst-4-2": "be5ce8d3a993a48e3a793f1dd995038645d1580e564547fabd6e0f5c5ffd5a06",
    "burst-4-3": "0261dd492a7b431ac38daa1e9b3a3c1277d83dd2c51eed1f7f964f62527ca13b",
    "burst-4-4": "bf4d30b74b3ee5c1cef9b98d388bb2efe6ed01a63eaaa652ee449df270b0e561",
    "burst-4-5": "74695ea622ae28da6116e042814183a7b678cf0127ddc8ab2b4f73f0d4e298ea",
    "burst-4-6": "e8dc962ba7c641a469e6315c12b56875c25587067769915790b7c20d5b712343",
    "burst-4-7": "629a26447f8b03f84b793faf5a9c2fa51ca6ade568587a6c0028020939c6e318",
    "burst-4-8": "fcc917dbb079ea6ba08e2f3ff76cd29fa9c1911c5bf482540a5c4b0edcb8fde6",
    "burst-4-9": "1f683632c99c3d89dbd48f23455b8ed7f383d3f4c3d7f632a19b51a28134bd82",
    "burst-4-10": "47d9a709a04e8e5b4ed8cc956817aa9e58f9e7a7f46736d02c57b573695d73dc",
    "burst-4-11": "1c20c3a672831ed5d647985011b0eb886afb6f4e9b1d27f9a0ed91c9effb5448",
    "burst-4-12": "ed167816996fd5c5fc9eb9e26b3812b5c15bc6a1e44f041588abd2b5bfd0bd01",
    "burst-4-13": "afec85f94e31df2cdb624257a183476ac3299b82c4757e2d8b5764f4cc67f0e8",
    "burst-4-14": "a2c074066e04ccdd18346d7503f3d59a73060e00da4ef1761cac1a3ee41bcf9d",
    "burst-4-15": "43ef98f28ae280ea18aaf06eed875a4b18e6bf78728539ea4622b747694b445d",
    "burst-4-16": "11717a367d8ca024ab9a6d6c744e22e26dd8b57e229dc21ad9b47e48aa43580a",
    "burst-4-17": "3d3a31e7a464aaa85d4c856907d572a195c865d98e27716391a03be9434336a0",
    "burst-4-18": "9e1b08fb23abb994180b117c443435d8a328863c0597264d738453da36b54683",
    "burst-4-19": "c6623758775617f117b839b5ebbf6e30ea67a74b0d2cc743f58db96d45d28972",
    "burst-4-20": "e06dbad826f807c137d4a94e2995888b5e7e9f71c050bb0cb41ea9dac4b9f904",
    "burst-4-21": "430f0978a16a62674e68737045ea4cf90d1c1eb7c1d501c2a715a276f9090a42",
    "burst-4-22": "4b40714d5bc40fb43d940ee9c24aaec29b690759cd9047a57060a4218c1825fc",
    "burst-4-23": "2676227a176e2c474b8553dc946c424695d8b0dbf3b642905b1bb909c10ceb09",
    "burst-4-24": "a2e66c608b711c61264b68efdef7b9e9de73e0e0b2abcc5f0bee3dfafb3b8536",
    "burst-4-25": "d53bc4ceab21cfec2dec7f1f1b7111d78db763b4a5815707341a3b9c6861f5d6",
    "burst-4-26": "ac18223d89e3869fb44a820266b5da9a23079133cafce662ae3194925dd8219a",
    "burst-4-27": "7aa8f0c8087dea2a9789495fbf05f658b6fb9c9bc87da6ee887061052dab4efa",
    "burst-4-28": "dd1a72ae5206c7bbc76ff307575d5d9b139e41d2a44ec820aaacaf9845d2a1d2",
    "burst-4-29": "d4c28848753f63a024eafd49fd383f19b9156fa7eec2b95a64b7a98d4d178c3e",
    "burst-4-30": "04feca7a4a42d577098aff236ebf4634146ff43ec97c0db1d7e5e46d37ee5a5c",
    "burst-4-31": "41f21e7629ef142ab230e6cd00954578ebce2b15730a471234ef95c80838c124",
}


@pytest.mark.parametrize("seed", BURST_SEEDS)
def test_burst_seed_has_32_programs(seed):
    assert len(burst_sources(seed)) == 32


def test_goldens_cover_the_corpus():
    assert set(OPT_GOLDENS) == set(CORPUS)


@pytest.mark.parametrize("key", list(CORPUS))
def test_optimizer_output_matches_golden(key):
    result = optimize_program(program_from_source(CORPUS[key]))
    assert result.bailed is None
    assert opt_digest(result) == OPT_GOLDENS[key]
